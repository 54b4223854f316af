package layout

import (
	"fmt"
	"hash/fnv"
	"testing"

	"surfcomm/internal/apps"
)

// placementDigest FNV-hashes a placement's grid and every qubit's tile.
func placementDigest(p *Placement) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%dx%d:", p.Rows, p.Cols)
	for _, c := range p.Pos {
		fmt.Fprintf(h, "(%d,%d)", c.Row, c.Col)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinnedPlacements holds the placementDigest of the row-major and the
// optimized placement (seed 1) of each Table 2 app's interaction graph.
var pinnedPlacements = map[string]string{
	"GSE/row-major":   "d7a741b482a9245e",
	"GSE/optimized":   "5428c950324ed96c",
	"SQ/row-major":    "48c1d85f00103e0a",
	"SQ/optimized":    "c7905677ab583ef9",
	"SHA-1/row-major": "b36b5df1765d92c4",
	"SHA-1/optimized": "9cf78e96d52a7a24",
	"IM/row-major":    "112524eeef731275",
	"IM/optimized":    "d9b419070b231eda",
}

// TestPlacementsPinned pins RowMajor and Optimized on the interaction
// graphs of the four Table 2 apps, so a change to the fill order, the
// recursive bisection or the placement objective that moves one qubit
// fails here.
func TestPlacementsPinned(t *testing.T) {
	seen := 0
	for _, w := range apps.Table2Suite() {
		g := interactionGraph(t, w.Circuit)
		opt, err := Optimized(g, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for kind, p := range map[string]*Placement{"row-major": RowMajor(g.NumVertices()), "optimized": opt} {
			key := w.Name + "/" + kind
			seen++
			if got, want := placementDigest(p), pinnedPlacements[key]; got != want {
				t.Errorf("%q: %q, // pinned %q", key, got, want)
			}
		}
	}
	if seen != len(pinnedPlacements) {
		t.Errorf("checked %d pinned placements, table has %d", seen, len(pinnedPlacements))
	}
}
