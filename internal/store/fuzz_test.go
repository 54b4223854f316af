package store

import (
	"bytes"
	"testing"
)

// FuzzStoreEntry feeds untrusted plan-file bytes (a disk entry torn by
// a crash, corrupted at rest, or planted by hand) through the entry
// decoder. No input panics; an accepted entry is exactly the encoding
// of the payload it returns, so its header carries that payload's
// length and SHA-256; and every payload survives encodeEntry then
// decodeEntry unchanged. The seed corpus lives in
// testdata/fuzz/FuzzStoreEntry.
func FuzzStoreEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, err := decodeEntry(data); err == nil && !bytes.Equal(encodeEntry(payload), data) {
			t.Fatalf("accepted %q, which is not the encoding of its payload %q", data, payload)
		}
		got, err := decodeEntry(encodeEntry(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %q: got %q, %v", data, got, err)
		}
	})
}
