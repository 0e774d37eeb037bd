package modelio

import (
	"strings"
	"testing"
)

func TestReadSamplesRejectsNonIncreasingAt(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{
			name: "decreasing",
			src:  `{"stations":[{"name":"db/disk","at":[1,50,40],"demands":[0.1,0.09,0.08]}]}`,
			want: `station 0 ("db/disk")`,
		},
		{
			name: "duplicate abscissa",
			src:  `{"stations":[{"at":[1,1],"demands":[0.1,0.1]}]}`,
			want: "station 0",
		},
		{
			name: "NaN abscissa",
			src:  `{"stations":[{"name":"app/cpu","at":[1,"NaN"],"demands":[0.1,0.1]}]}`,
			want: "", // json decode error is fine too; must just fail
		},
		{
			name: "second station offends",
			src:  `{"stations":[{"name":"a","at":[1,2],"demands":[0.1,0.1]},{"name":"b","at":[2,2],"demands":[0.1,0.1]}]}`,
			want: `station 1 ("b")`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSamples(strings.NewReader(tc.src))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offending station (%q)", err, tc.want)
			}
		})
	}
}

func TestReadSamplesAcceptsIncreasingAt(t *testing.T) {
	src := `{"stations":[{"name":"app/cpu","at":[1,50,100],"demands":[0.02,0.018,0.017]}]}`
	s, err := ReadSamples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSamplesValidateErrorText pins Validate's error texts byte for byte,
// with and without a station name, for both checks.
func TestSamplesValidateErrorText(t *testing.T) {
	ok := StationSamples{At: []float64{1, 2}, Demands: []float64{0.1, 0.2}}
	for _, c := range []struct {
		st   StationSamples
		want string
	}{
		{StationSamples{At: []float64{1}}, "modelio: station 1: 1 abscissae, 0 demands"},
		{StationSamples{Name: "db/disk"}, `modelio: station 1 ("db/disk"): 0 abscissae, 0 demands`},
		{StationSamples{At: []float64{1, 3, 2}, Demands: []float64{1, 2, 3}}, "modelio: station 1: abscissae not strictly increasing at index 2 (2 after 3)"},
		{StationSamples{Name: "a\"bé", At: []float64{1, 1}, Demands: []float64{1, 2}}, `modelio: station 1 ("a\"bé"): abscissae not strictly increasing at index 1 (1 after 1)`},
	} {
		err := (&SamplesFile{Stations: []StationSamples{ok, c.st}}).Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("Validate error %v, want %q", err, c.want)
		}
	}
	if err := (&SamplesFile{Stations: []StationSamples{ok}}).Validate(); err != nil {
		t.Fatal(err)
	}
}
