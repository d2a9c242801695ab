package sim

// The hierarchy-pool property: results must not depend on whether a run's
// hierarchy came fresh from mem.New or was reused through Reset out of the
// per-config sync.Pool. Every stateful surface a policy touches — DRI
// controller state, per-line policy maps, and the waymemo link-register
// table — must be fully cleared by Reset, or a pooled run inherits the
// previous run's state (a waymemo link table left populated, for example,
// would let the first accesses of a pooled run memo-hit blocks the fresh
// run misses on).

import (
	"reflect"
	"testing"

	"dricache/internal/dri"
	"dricache/internal/mem"
	"dricache/internal/policy"
)

// TestPooledHierarchyBitIdentical runs every policy kind three times on one
// configuration: the first run on a freshly constructed hierarchy (the pool
// is drained first), the later runs on the pooled hierarchy after Reset.
// All three results must be bit-identical.
func TestPooledHierarchyBitIdentical(t *testing.T) {
	p := applu(t)
	const n = 200_000
	const iv = 50_000
	conv4 := Conventional64K()
	conv4.Assoc = 4
	memo := policy.DefaultWayMemo(iv)
	memo.MemoTableEntries = 256
	cases := []struct {
		name string
		cfg  Config
	}{
		{"conventional", Default(Conventional64K(), n)},
		{"dri", Default(DRI64K(dri.DefaultParams(iv)), n)},
		{"decay", Default(Conventional64K(), n).WithL1IPolicy(policy.DefaultDecay(iv))},
		{"drowsy", Default(conv4, n).WithL1IPolicy(policy.DefaultDrowsy(iv))},
		{"waygate", Default(conv4, n).WithL1IPolicy(policy.DefaultWayGate(iv))},
		{"waymemo", Default(conv4, n).WithL1IPolicy(memo).WithL2Policy(policy.DefaultWayMemo(iv))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Mem.Check(); err != nil {
				t.Fatal(err)
			}
			mem.DrainPools()
			fresh := Run(tc.cfg, p)
			for i := 0; i < 2; i++ {
				if pooled := Run(tc.cfg, p); !reflect.DeepEqual(pooled, fresh) {
					t.Fatalf("pooled run %d diverges from the fresh-hierarchy run:\n  pooled %+v\n  fresh  %+v",
						i+1, pooled, fresh)
				}
			}
		})
	}
}
