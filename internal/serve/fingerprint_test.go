package serve

import (
	"testing"

	"memsci/internal/core"
	"memsci/internal/sparse"
)

// TestFingerprintGolden pins the cache key of one small operator under
// the direct and the refine cluster configurations. Ring ownership
// across nodes hangs on these strings, so any change to the hashed
// bytes — word order, width, endianness, the config rendering — must
// show up here rather than as a silent re-sharding of a mixed-version
// cluster.
func TestFingerprintGolden(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	for _, e := range []struct {
		i, j int
		v    float64
	}{{0, 0, 4}, {0, 1, -1}, {1, 0, -1}, {1, 1, 4.5}, {1, 2, 0.25}, {2, 1, 0.25}, {2, 2, 3e-7}} {
		coo.Add(e.i, e.j, e.v)
	}
	m := coo.ToCSR()
	for _, c := range []struct {
		name string
		cfg  core.ClusterConfig
		want string
	}{
		{"default", core.DefaultClusterConfig(), "sha256:8c64fdc3aef23d419b359c20b24975aff836ebf215a268c9812493c016776b36"},
		{"refine", core.ReducedSliceConfig(DefaultRefineBits), "sha256:46a51a86acb14c96393531bdf0d8931e840a8a7388ed9521f0bee9897016c34f"},
	} {
		if got := Fingerprint(m, c.cfg, 1); got != c.want {
			t.Errorf("%s: Fingerprint = %s, want %s", c.name, got, c.want)
		}
	}
}
