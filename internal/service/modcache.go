package service

import (
	"crypto/sha256"
	"encoding/hex"

	"surfcomm"
)

// Module plans live in the same LRU (and disk store) as program plans,
// under separate key namespaces:
//
//   - LRU: "module/<content-digest>" — can never collide with program
//     keys, which are bare 64-hex digests;
//   - disk: hex(sha256("module|<content-digest>")) — the store only
//     accepts bare 64-hex filenames, so the namespace is folded into a
//     re-hash instead of a prefix.
//
// Sharing one LRU means module and program plans compete under one
// weight budget (a module plan weighs like any summary plan), and one
// eviction policy keeps whichever layer is hot.

// moduleLRUKey namespaces a module content digest in the LRU.
func moduleLRUKey(digest string) string { return "module/" + digest }

// moduleDiskKey folds the module namespace into a store-safe digest.
func moduleDiskKey(digest string) string {
	h := sha256.Sum256([]byte("module|" + digest))
	return hex.EncodeToString(h[:])
}

// svcModuleCache adapts the service's cache stack (LRU + disk layer +
// per-layer counters) to the toolchain's ModuleCache. One adapter is
// built per compile, carrying that request's persistence eligibility.
type svcModuleCache struct {
	s *Service
	// persist gates the disk layer exactly like program plans: plans
	// carrying recorded schedules never touch disk (the store drops
	// artifacts, and a disk hit must not serve an artifact-less plan).
	persist bool
}

func (a *svcModuleCache) GetModule(digest string) (surfcomm.Plan, bool) {
	if p, ok := a.s.cache.peek(moduleLRUKey(digest)); ok {
		a.s.modHits.Add(1)
		return p, true
	}
	if a.persist {
		if p, ok := a.s.cache.disk.load(moduleDiskKey(digest)); ok {
			// Promote the disk hit so the next probe is a memory hit.
			a.s.cache.put(moduleLRUKey(digest), p)
			a.s.modDiskHits.Add(1)
			return p, true
		}
	}
	a.s.modMisses.Add(1)
	return surfcomm.Plan{}, false
}

func (a *svcModuleCache) PutModule(digest string, p surfcomm.Plan) {
	a.s.cache.put(moduleLRUKey(digest), p)
	if a.persist {
		a.s.cache.disk.save(moduleDiskKey(digest), p)
	}
}
