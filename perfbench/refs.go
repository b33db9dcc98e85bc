package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/trace"
)

// Correctness references, recorded with -record. Each maps a cell key to
// the simulated seconds and, for cells the benchmark measures directly,
// the trace counters. Every run compares its results against them bit
// for bit. They pin the simulator to its own earlier output: the model is
// not validated against real hardware, and no accuracy figure is given.
//
//go:embed refs/*.json
var refsFS embed.FS

// cellRef is one cell's reference. The per-link byte map (thousands of
// links on the cluster) is kept as a hash of its JSON encoding; the other
// counters are kept as they are.
type cellRef struct {
	Seconds   float64      `json:"seconds"`
	Stats     *trace.Stats `json:"stats,omitempty"`
	LinkBytes string       `json:"link_bytes_sha256,omitempty"`
}

type refTable map[string]cellRef

func loadRefs(name string) (refTable, error) {
	data, err := refsFS.ReadFile("refs/" + name + ".json")
	if err != nil {
		return nil, err
	}
	var t refTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("refs/%s.json: %v", name, err)
	}
	if len(t) == 0 {
		return nil, fmt.Errorf("refs/%s.json holds no cells (run -record)", name)
	}
	return t, nil
}

// statsRef splits stats into its counters and the hash of its link map.
func statsRef(seconds float64, stats *trace.Stats) (cellRef, error) {
	links, err := json.Marshal(stats.LinkBytes)
	if err != nil {
		return cellRef{}, err
	}
	counters := *stats
	counters.LinkBytes = nil
	sum := sha256.Sum256(links)
	return cellRef{Seconds: seconds, Stats: &counters, LinkBytes: hex.EncodeToString(sum[:])}, nil
}

// check compares one measured cell with its reference and returns a
// one-line cause on mismatch ("" when equal). stats may be nil for cells
// whose counters the program does not return (served cells).
func (t refTable) check(key string, seconds float64, stats *trace.Stats) string {
	ref, ok := t[key]
	if !ok {
		return fmt.Sprintf("%s: no reference", key)
	}
	if math.Float64bits(seconds) != math.Float64bits(ref.Seconds) {
		return fmt.Sprintf("%s: seconds %v, reference %v", key, seconds, ref.Seconds)
	}
	if stats == nil || ref.Stats == nil {
		return ""
	}
	got, err := statsRef(seconds, stats)
	if err != nil {
		return fmt.Sprintf("%s: stats: %v", key, err)
	}
	a, _ := json.Marshal(got.Stats)
	b, _ := json.Marshal(ref.Stats)
	if !bytes.Equal(a, b) {
		return fmt.Sprintf("%s: trace counters %s, reference %s", key, a, b)
	}
	if got.LinkBytes != ref.LinkBytes {
		return fmt.Sprintf("%s: per-link bytes differ from reference", key)
	}
	return ""
}

func writeRefs(dir, name string, t refTable) error {
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}
