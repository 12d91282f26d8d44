package engine

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"unn/internal/constructions"
	"unn/internal/geom"
	"unn/internal/quantify"
	"unn/internal/uncertain"
)

var parityKs = []int{1, 2, 4, 7}

// shardedOver wraps backend b over ds at k shards (t.Fatal on error).
func shardedOver(t *testing.T, b Backend, ds *Dataset, k int, bopt BuildOptions) Index {
	t.Helper()
	ix, err := BuildSharded(b, ds, bopt, ShardOptions{Shards: k})
	if err != nil {
		t.Fatalf("sharded %s k=%d: %v", b, k, err)
	}
	return ix
}

// probsMaxDiff renders two sparse π vectors dense and returns their L∞
// distance.
func probsMaxDiff(a, b []quantify.Prob, n int) float64 {
	da, db := make([]float64, n), make([]float64, n)
	for _, pr := range a {
		da[pr.I] = pr.P
	}
	for _, pr := range b {
		db[pr.I] = pr.P
	}
	m := 0.0
	for i := range da {
		if d := math.Abs(da[i] - db[i]); d > m {
			m = d
		}
	}
	return m
}

// TestShardedParity is the merge planner's core contract: for every
// backend and k ∈ {1,2,4,7}, the sharded index answers every supported
// query kind identically to the monolithic backend — bit-identical NN≠0
// sets, π within 1e-12 for the exact probability backends, and the same
// expected-distance NN. The approximating probability backends (spiral,
// montecarlo) are checked against the exact reference at their own
// accuracy level, since sharding legitimately changes which prefix /
// samples they see.
func TestShardedParity(t *testing.T) {
	for _, tc := range allBackendCases(t) {
		tc := tc
		name := string(tc.backend) + "/" + map[bool]string{true: "disks", false: "pts"}[tc.ds.Disks != nil]
		t.Run(name, func(t *testing.T) {
			mono, err := Build(tc.backend, tc.ds, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(0x5a4d ^ int64(tc.ds.N())))
			qs := randQueries(rng, 48, tc.side)
			var exact []*uncertain.Discrete
			if tc.ds.Discrete != nil {
				exact = tc.ds.Discrete
			}
			approx := tc.backend == BackendMonteCarlo || tc.backend == BackendSpiral
			for _, k := range parityKs {
				sx := shardedOver(t, tc.backend, tc.ds, k, BuildOptions{})
				if got := sx.Capabilities(); got != tc.caps {
					t.Fatalf("k=%d: capabilities = %v, want %v", k, got, tc.caps)
				}
				for _, q := range qs {
					if tc.caps.Has(CapNonzero) {
						want, err1 := mono.QueryNonzero(q)
						got, err2 := sx.QueryNonzero(q)
						if err1 != nil || err2 != nil {
							t.Fatalf("k=%d: nonzero errs %v / %v", k, err1, err2)
						}
						if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
							t.Fatalf("k=%d q=%v: nonzero %v, want %v", k, q, got, want)
						}
					}
					if tc.caps.Has(CapProbs) {
						got, err := sx.QueryProbs(q, 0)
						if err != nil {
							t.Fatalf("k=%d: probs err %v", k, err)
						}
						if approx && k > 1 {
							// Sharded approximators: compare against the exact
							// reference at approximation accuracy.
							ref := quantify.ExactPositive(exact, q)
							if d := probsMaxDiff(got, ref, tc.ds.N()); d > 0.2 {
								t.Fatalf("k=%d q=%v: approx probs off exact by %g", k, q, d)
							}
						} else {
							want, err := mono.QueryProbs(q, 0)
							if err != nil {
								t.Fatal(err)
							}
							if d := probsMaxDiff(got, want, tc.ds.N()); d > 1e-12 {
								t.Fatalf("k=%d q=%v: probs diverge by %g", k, q, d)
							}
						}
					}
					if tc.caps.Has(CapExpected) {
						wi, wd, err1 := mono.QueryExpected(q)
						gi, gd, err2 := sx.QueryExpected(q)
						if err1 != nil || err2 != nil {
							t.Fatalf("k=%d: expected errs %v / %v", k, err1, err2)
						}
						if wi != gi || wd != gd {
							t.Fatalf("k=%d q=%v: expected (%d,%v), want (%d,%v)", k, q, gi, gd, wi, wd)
						}
					}
				}
			}
		})
	}
}

// TestShardedDegenerate covers n < k (forced empty shards), an
// all-coincident cluster (empty shards under a grid cut) and exact
// distance ties: answers must still match the monolithic backend.
func TestShardedDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(0xdead))
	small := FromDiscrete(constructions.RandomDiscrete(rng, 3, 2, 20, 1.0, 1))
	mono, err := Build(BackendBrute, small, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qs := randQueries(rng, 32, 20)
	for _, k := range []int{4, 7, 9} {
		for _, split := range []Split{SplitKDMedian, SplitGrid} {
			sx, err := NewSharded(BackendBrute, BuildOptions{}, ShardOptions{Shards: k, Split: split})
			if err != nil {
				t.Fatal(err)
			}
			if err := sx.Build(small); err != nil {
				t.Fatalf("k=%d split=%d: %v", k, split, err)
			}
			empties := 0
			for _, sz := range sx.shardSizes() {
				if sz == 0 {
					empties++
				}
			}
			if empties == 0 {
				t.Fatalf("k=%d > n=3: expected empty shards, sizes %v", k, sx.shardSizes())
			}
			for _, q := range qs {
				want, _ := mono.QueryNonzero(q)
				got, err := sx.QueryNonzero(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
					t.Fatalf("k=%d: nonzero %v, want %v", k, got, want)
				}
				wp, _ := mono.QueryProbs(q, 0)
				gp, err := sx.QueryProbs(q, 0)
				if err != nil {
					t.Fatal(err)
				}
				if d := probsMaxDiff(gp, wp, small.N()); d > 1e-12 {
					t.Fatalf("k=%d: probs diverge by %g", k, d)
				}
			}
		}
	}

	// All centroids coincident: the grid cut piles everything into one
	// cell, leaving k−1 empty shards.
	locs := []geom.Point{geom.Pt(5, 5)}
	coincident := make([]*uncertain.Discrete, 4)
	for i := range coincident {
		coincident[i] = uncertain.UniformDiscrete(locs)
	}
	ds := FromDiscrete(coincident)
	sx, err := NewSharded(BackendBrute, BuildOptions{}, ShardOptions{Shards: 4, Split: SplitGrid})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Build(ds); err != nil {
		t.Fatal(err)
	}
	monoC, err := Build(BackendBrute, ds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		want, _ := monoC.QueryNonzero(q)
		got, err := sx.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
			t.Fatalf("coincident: nonzero %v, want %v", got, want)
		}
	}

	// Distance ties: integer-grid locations queried from lattice and
	// half-lattice points, so locations of different points sit at equal
	// distances (a competitor's δ_j equals the candidate's r), plus one
	// query on each shard's bbox edge. Two or four equal weights keep
	// Σw exactly 1, so the exact sweep and the sharded merge must agree on
	// the π support, not just the values.
	var grid []*uncertain.Discrete
	for x := 0; x < 6; x++ {
		for y := 0; y < 5; y++ {
			cx, cy := float64(2*x), float64(2*y+x%2)
			locs := []geom.Point{geom.Pt(cx-1, cy), geom.Pt(cx+1, cy)}
			if (x+y)%3 == 0 {
				locs = append(locs, geom.Pt(cx, cy-1), geom.Pt(cx, cy+1))
			}
			grid = append(grid, uncertain.UniformDiscrete(locs))
		}
	}
	gds := FromDiscrete(grid)
	monoG, err := Build(BackendBrute, gds, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var gqs []geom.Point
	for x := -1; x <= 12; x += 2 {
		for y := 0; y <= 10; y += 3 {
			gqs = append(gqs, geom.Pt(float64(x), float64(y)), geom.Pt(float64(x)+0.5, float64(y)+0.5))
		}
	}
	for _, k := range parityKs {
		sx := shardedOver(t, BackendBrute, gds, k, BuildOptions{}).(*ShardedIndex)
		qs := gqs
		for _, s := range sx.shards {
			b := s.bbox
			qs = append(qs, geom.Pt(b.Max.X, (b.Min.Y+b.Max.Y)/2), geom.Pt(b.Min.X, b.Max.Y))
		}
		for _, q := range qs {
			want, err1 := monoG.QueryProbs(q, 0)
			got, err2 := sx.QueryProbs(q, 0)
			if err1 != nil || err2 != nil {
				t.Fatalf("grid k=%d: probs errs %v / %v", k, err1, err2)
			}
			if len(got) != len(want) {
				t.Fatalf("grid k=%d q=%v: π support %v, want %v", k, q, got, want)
			}
			for i := range want {
				if got[i].I != want[i].I || math.Abs(got[i].P-want[i].P) > 1e-12 {
					t.Fatalf("grid k=%d q=%v: π %v, want %v", k, q, got, want)
				}
			}
		}
	}
}

// TestShardedUnsupported verifies the capability contract survives
// sharding: a kind no shard backend supports returns ErrUnsupported.
func TestShardedUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := FromDisks(constructions.RandomDisks(rng, 8, 20, 0.5, 1.5))
	sx := shardedOver(t, BackendTwoStageDisks, ds, 3, BuildOptions{})
	if _, err := sx.QueryProbs(geom.Pt(1, 1), 0); !errors.Is(err, ErrUnsupported) {
		t.Errorf("QueryProbs err = %v, want ErrUnsupported", err)
	}
	if _, _, err := sx.QueryExpected(geom.Pt(1, 1)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("QueryExpected err = %v, want ErrUnsupported", err)
	}
}

// TestShardedInvalid exercises constructor validation.
func TestShardedInvalid(t *testing.T) {
	if _, err := NewSharded(Backend("nope"), BuildOptions{}, ShardOptions{Shards: 2}); err == nil {
		t.Error("NewSharded accepted an unknown backend")
	}
	if _, err := NewSharded(BackendBrute, BuildOptions{}, ShardOptions{}); err == nil {
		t.Error("NewSharded accepted Shards = 0")
	}
	sx, err := NewSharded(BackendBrute, BuildOptions{}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Build(&Dataset{}); err == nil {
		t.Error("Build accepted an empty dataset")
	}
}

// TestShardedContinuousProbs checks the approximate continuous merge
// path: sharded Monte Carlo over truncated Gaussians must stay close to
// the monolithic Monte-Carlo estimate (both are ε-accurate estimates of
// the same true vector).
func TestShardedContinuousProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := make([]uncertain.Point, 16)
	for i := range pts {
		d := geom.DiskAt(rng.Float64()*60, rng.Float64()*60, 1+rng.Float64()*2)
		pts[i] = uncertain.NewTruncGauss(d, d.R/2)
	}
	ds := FromPoints(pts)
	bopt := BuildOptions{MCRounds: 256}
	mono, err := Build(BackendMonteCarlo, ds, bopt)
	if err != nil {
		t.Fatal(err)
	}
	sx := shardedOver(t, BackendMonteCarlo, ds, 4, bopt)
	qs := randQueries(rng, 16, 60)
	for _, q := range qs {
		want, err := mono.QueryProbs(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.QueryProbs(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := probsMaxDiff(got, want, len(pts)); d > 0.25 {
			t.Fatalf("q=%v: sharded continuous probs off monolithic MC by %g", q, d)
		}
	}
}

// TestShardedThroughEngine verifies ShardedIndex composes with the
// batch and cache machinery exactly like any other Index.
func TestShardedThroughEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds := FromDiscrete(constructions.RandomDiscrete(rng, 40, 3, 60, 1.0, 1))
	sx := shardedOver(t, BackendBrute, ds, 4, BuildOptions{})
	eng := NewEngine(sx, Options{Workers: 4, CacheSize: 64})
	qs := randQueries(rng, 32, 60)
	single := make([][]int, len(qs))
	for i, q := range qs {
		out, err := eng.QueryNonzero(q)
		if err != nil {
			t.Fatal(err)
		}
		single[i] = out
	}
	batched, err := eng.BatchNonzero(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, batched) {
		t.Fatal("sharded batch diverges from single queries")
	}
	if hits, _ := eng.CacheStats(); hits == 0 {
		t.Fatal("repeated sharded queries did not hit the cache")
	}
}
