package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// CellResult is one machine-readable grid cell: which study it belongs
// to, which cell of the grid it is, and its scalar metrics. A sweep run
// serialized as a list of CellResults (see WriteRecords) is the
// BENCH_*.json artifact used to track the perf and accuracy trajectory
// of the reproduction across revisions.
type CellResult struct {
	Study   string             `json:"study"`
	Cell    string             `json:"cell"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
	// Device names the topology the cell ran on (preset + defect
	// fraction + realization seed), so records from different
	// topologies are distinguishable. It serializes last among the
	// always-present fields: pre-device records gain a byte-compatible
	// `"device": "perfect"` suffix.
	Device string `json:"device"`
	// Strategy names the decoding strategy of a decode-study cell; the
	// other studies' records omit it.
	Strategy string `json:"strategy,omitempty"`
}

// WriteRecords serializes cells as indented JSON. Encoding is stable:
// cell order is preserved and metric keys marshal sorted, so two runs
// that computed the same values produce identical bytes — the property
// the parallel-equals-serial check and cross-revision diffs rely on.
func WriteRecords(w io.Writer, cells []CellResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cells)
}

// WriteRecordsFile writes cells to path (the BENCH_*.json convention).
func WriteRecordsFile(path string, cells []CellResult) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if err := WriteRecords(f, cells); err != nil {
		f.Close()
		return fmt.Errorf("sweep: encoding %s: %w", path, err)
	}
	return f.Close()
}
