package surfcomm

// Decode facade: strategy selection by name, the one space-time Monte
// Carlo behind every logical-rate measurement, and the windowed
// streaming decoder the /decode service wraps.

import (
	"context"
	"math/rand"

	"surfcomm/internal/decoder"

	// Importing the union-find subsystem registers its strategy, so
	// every layer built on the facade (cmd/sweep, internal/service,
	// cmd/surfcommd, client programs) can resolve "unionfind" by name.
	_ "surfcomm/internal/ufdecoder"
)

// Decoding strategy names accepted by WithDecoderStrategy,
// NewStreamDecoder, and the service /decode endpoint.
const (
	DecoderStrategyMWPM      = decoder.StrategyMWPM
	DecoderStrategyUnionFind = decoder.StrategyUnionFind
)

// DecoderStrategies lists the registered decoding strategy names,
// sorted.
func DecoderStrategies() []string { return decoder.StrategyNames() }

// StreamDecoder is the streaming face of the space-time decoder: push
// syndrome rounds as they are measured; every `window` rounds the
// accumulated change volume decodes as one space-time batch. Not safe
// for concurrent use — each streaming session owns one.
type StreamDecoder = decoder.WindowDecoder

// NewStreamDecoder builds a streaming decoder on a distance-d lattice
// decoding every `window` rounds under the named strategy ("" selects
// MWPM). Unknown strategies surface ErrBadConfig.
func NewStreamDecoder(d, window int, strategy string) (*StreamDecoder, error) {
	l, err := decoder.NewLattice(d)
	if err != nil {
		return nil, err
	}
	s, err := decoder.StrategyByName(strategy)
	if err != nil {
		return nil, err
	}
	return decoder.NewWindowDecoder(l, window, s)
}

// measureLogicalRate runs the decoding Monte Carlo: trials syndrome
// histories of the given rounds on a distance-d lattice, with data
// error rate p and measurement error rate q, drawn from seed and
// decoded as space-time volumes under cfg. Rounds 1 with q = 0 is the
// code-capacity measurement behind Toolchain.MeasureLogicalErrorRate
// and the decoder studies' cells; MeasureLogicalErrorRateHistory passes
// its own. The failure count depends on the seed and strategy, never on
// cfg.Workers.
func measureLogicalRate(ctx context.Context, d, rounds int, p, q float64, trials int, seed int64, cfg decoder.Config) (DecoderResult, error) {
	l, err := decoder.NewLattice(d)
	if err != nil {
		return DecoderResult{}, err
	}
	mc := &decoder.HistoryMonteCarlo{Lattice: l, Rounds: rounds, Rng: rand.New(rand.NewSource(seed)), Config: cfg}
	return mc.RunContext(ctx, p, q, trials)
}
