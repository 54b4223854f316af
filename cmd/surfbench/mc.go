package main

import (
	"context"
	"fmt"
	"time"

	"surfcomm"
)

const (
	mcTrials  = 2000
	mcWorkers = 2
	// mcSerialMaxD bounds the cells setup re-runs with one worker as the
	// worker-count oracle (the larger cells would dominate set-up).
	mcSerialMaxD = 9
)

var (
	mcDistances  = []int{5, 9, 13, 17}
	mcRates      = []float64{0.03, 0.05, 0.08}
	mcStrategies = []string{surfcomm.DecoderStrategyMWPM, surfcomm.DecoderStrategyUnionFind}
)

// mcCell is one Monte Carlo cell of the decode-mc grid.
type mcCell struct {
	d        int
	p        float64
	strategy string
}

func (c mcCell) label() string { return fmt.Sprintf("%s/d=%d/p=%.2f", c.strategy, c.d, c.p) }

func mcGrid() []mcCell {
	var out []mcCell
	for _, st := range mcStrategies {
		for _, d := range mcDistances {
			for _, p := range mcRates {
				out = append(out, mcCell{d: d, p: p, strategy: st})
			}
		}
	}
	return out
}

// decodeMC is the research batch path: Toolchain.MeasureLogicalErrorRate
// cells cycled over the grid, with no HTTP at all. One client suffices:
// each cell already decodes on both cores through WithWorkers(2), and a
// second client would only time-slice two cells against each other.
// Phases run whole passes over the grid, so every cell contributes
// equally to the latency percentiles.
type decodeMC struct {
	cells []mcCell
	tcs   map[string]*surfcomm.Toolchain
	// want is each cell's expected failure count: the one-worker
	// reference for small cells, else the first observation in the run.
	want []int
}

func (w *decodeMC) clients() int { return 1 }
func (w *decodeMC) cycle() int   { return len(w.cells) }
func (w *decodeMC) close()       {}

func (w *decodeMC) setup(b *bench) error {
	w.cells = mcGrid()
	w.tcs = map[string]*surfcomm.Toolchain{}
	for _, st := range mcStrategies {
		tc, err := surfcomm.NewToolchain(surfcomm.WithWorkers(mcWorkers), surfcomm.WithSeed(b.seed), surfcomm.WithDecoderStrategy(st))
		if err != nil {
			return err
		}
		w.tcs[st] = tc
	}
	// Worker-count oracle: failure counts are bit-identical at any
	// worker count, so a serial run of the cheap cells pins them.
	w.want = make([]int, len(w.cells))
	for k, c := range w.cells {
		w.want[k] = -1
		if c.d > mcSerialMaxD {
			continue
		}
		tc, err := surfcomm.NewToolchain(surfcomm.WithWorkers(1), surfcomm.WithSeed(b.seed), surfcomm.WithDecoderStrategy(c.strategy))
		if err != nil {
			return err
		}
		res, err := tc.MeasureLogicalErrorRate(context.Background(), c.d, c.p, mcTrials)
		if err != nil {
			return err
		}
		w.want[k] = res.Failures
	}
	return nil
}

func (w *decodeMC) do(ctx context.Context, b *bench, _ int, i int64, traced bool) []sample {
	k := int(i % int64(len(w.cells)))
	c := w.cells[k]
	s := sample{op: i, traced: traced, id: b.traceID(traced, i)}
	start := time.Now()
	res, err := w.tcs[c.strategy].MeasureLogicalErrorRate(ctx, c.d, c.p, mcTrials)
	end := time.Now()
	s.lat = end.Sub(start)
	b.span(s.id, spanCell, start, end, 0)
	if err != nil {
		s.failed = true
		return []sample{s}
	}
	switch {
	case w.want[k] < 0:
		w.want[k] = res.Failures
	case res.Failures != w.want[k]:
		b.chk.failf("decode-mc %s: %d failures, expected %d (reference or earlier pass)", c.label(), res.Failures, w.want[k])
	}
	b.gold.cell(b, c.label(), res.Failures)
	return []sample{s}
}
