package olap

import (
	"anydb/internal/core"
	"anydb/internal/storage"
)

// NewJoinWithHash installs spec's hash join on ac as the EvInstallOp
// path does, but hashing keys with hash instead of hashKeys, so tests
// can force every key to collide.
func NewJoinWithHash(ctx core.Context, ac *core.AC, spec *JoinSpec, hash func(dst []uint64, b *storage.Batch, cols []int) []uint64) {
	j := newJoinState(spec)
	j.hash = hash
	startJoin(ctx, ac, j)
}
