// Package modelio reads and writes the JSON file formats the command-line
// tools exchange: closed queueing-network models (queueing.Model) and
// per-station service-demand sample arrays (the MVASD input).
package modelio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/queueing"
)

// LoadModel reads and validates a queueing model from a JSON file.
func LoadModel(path string) (*queueing.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	return ReadModel(f)
}

// ReadModel decodes and validates a model from a reader.
func ReadModel(r io.Reader) (*queueing.Model, error) {
	var m queueing.Model
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("modelio: decoding model: %w", err)
	}
	if err := m.ValidateShape(); err != nil {
		return nil, err
	}
	return &m, nil
}

// SaveModel writes a model to a JSON file (pretty-printed).
func SaveModel(path string, m *queueing.Model) error {
	if err := m.ValidateShape(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	return WriteModel(f, m)
}

// WriteModel encodes a model to a writer.
func WriteModel(w io.Writer, m *queueing.Model) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// SamplesFile is the on-disk shape of a demand-sample set.
type SamplesFile struct {
	// Stations holds one entry per model station, in model order or
	// matched by name against the model when names are present.
	Stations []StationSamples `json:"stations"`
}

// StationSamples is one station's measured demand array.
type StationSamples struct {
	// Name optionally matches a model station.
	Name string `json:"name,omitempty"`
	// At are the concurrency (or throughput) levels sampled.
	At []float64 `json:"at"`
	// Demands are the corresponding service demands in seconds.
	Demands []float64 `json:"demands"`
}

// LoadSamples reads a demand-sample file.
func LoadSamples(path string) (*SamplesFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	return ReadSamples(f)
}

// ReadSamples decodes a demand-sample set from a reader.
func ReadSamples(r io.Reader) (*SamplesFile, error) {
	var s SamplesFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("modelio: decoding samples: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the structural soundness the interpolators rely on: at
// least one station, every station's At and Demands arrays the same non-zero
// length, and At strictly increasing. Errors name the offending station.
func (s *SamplesFile) Validate() error {
	if len(s.Stations) == 0 {
		return fmt.Errorf("modelio: samples file has no stations")
	}
	for i, st := range s.Stations {
		if err := st.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one station's arrays; i is its position for error text.
func (st *StationSamples) validate(i int) error {
	if len(st.At) == 0 || len(st.At) != len(st.Demands) {
		return fmt.Errorf("modelio: %s: %d abscissae, %d demands",
			st.label(i), len(st.At), len(st.Demands))
	}
	for j := 1; j < len(st.At); j++ {
		if !(st.At[j] > st.At[j-1]) { // also catches NaN
			return fmt.Errorf("modelio: %s: abscissae not strictly increasing at index %d (%g after %g)",
				st.label(i), j, st.At[j], st.At[j-1])
		}
	}
	return nil
}

// label names the station at position i in error text; it is built only
// when an error is, since validate runs on every sample-driven solve.
func (st *StationSamples) label(i int) string {
	if st.Name == "" {
		return fmt.Sprintf("station %d", i)
	}
	return fmt.Sprintf("station %d (%q)", i, st.Name)
}

// SaveSamples writes a demand-sample file.
func SaveSamples(path string, s *SamplesFile) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ToDemandSamples aligns the file's stations with the model and returns the
// core input arrays. When every entry carries a name, matching is by name;
// otherwise positional (and the counts must agree).
func (s *SamplesFile) ToDemandSamples(m *queueing.Model) ([]core.DemandSamples, error) {
	byName := true
	for _, st := range s.Stations {
		if st.Name == "" {
			byName = false
			break
		}
	}
	out := make([]core.DemandSamples, len(m.Stations))
	if byName {
		idx := map[string]int{}
		for i, st := range s.Stations {
			idx[st.Name] = i
		}
		for k, st := range m.Stations {
			j, ok := idx[st.Name]
			if !ok {
				return nil, fmt.Errorf("modelio: no samples for station %q", st.Name)
			}
			out[k] = core.DemandSamples{At: s.Stations[j].At, Demands: s.Stations[j].Demands}
		}
		return out, nil
	}
	if len(s.Stations) != len(m.Stations) {
		return nil, fmt.Errorf("modelio: %d sample stations for %d model stations (and not all named)",
			len(s.Stations), len(m.Stations))
	}
	for k := range m.Stations {
		out[k] = core.DemandSamples{At: s.Stations[k].At, Demands: s.Stations[k].Demands}
	}
	return out, nil
}

// FromDemandSamples packages core sample arrays (with station names from the
// model) for saving.
func FromDemandSamples(m *queueing.Model, samples []core.DemandSamples) (*SamplesFile, error) {
	if len(samples) != len(m.Stations) {
		return nil, fmt.Errorf("modelio: %d samples for %d stations", len(samples), len(m.Stations))
	}
	out := &SamplesFile{Stations: make([]StationSamples, len(samples))}
	for k, s := range samples {
		out.Stations[k] = StationSamples{
			Name:    m.Stations[k].Name,
			At:      append([]float64(nil), s.At...),
			Demands: append([]float64(nil), s.Demands...),
		}
	}
	return out, nil
}
