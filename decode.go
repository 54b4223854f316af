package surfcomm

// Streaming decode facade: strategy selection by name and the windowed
// streaming decoder the /decode service wraps.

import (
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
