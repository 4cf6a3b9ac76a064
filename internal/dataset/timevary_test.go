package dataset

import (
	"hash/fnv"
	"slices"
	"testing"
)

// Time-varying partitioners: shards are pure functions of
// (seed, clientID, round), stages change exactly at their boundaries, and
// no round's draws depend on another round — regardless of which round
// was queried first.

// labelAt reads one example's final label without generating its sample:
// the exact label path of ClientData.Get.
func labelAt(d *Dataset, cd *ClientData, i int) int {
	class := cd.shard.ClassAt(i)
	y := d.flipLabel(class, int64(cd.id), int64(i))
	if cd.shard.FlipRate > 0 {
		if cd.shard.FlipLabel != 0 {
			return d.extraFlipAtRound(y, cd.shard.FlipRate, cd.shard.FlipLabel, int64(cd.id), int64(i), int64(cd.shard.Round))
		}
		return d.extraFlip(y, cd.shard.FlipRate, int64(cd.id), int64(i))
	}
	return y
}

// labelDigest fingerprints one (client, round) shard's full label sequence.
func labelDigest(d *Dataset, cd *ClientData) uint64 {
	h := fnv.New64a()
	for i := 0; i < cd.Len(); i++ {
		y := labelAt(d, cd, i)
		h.Write([]byte{byte(y), byte(y >> 8)})
	}
	return h.Sum64()
}

func TestIncrementalClassesStages(t *testing.T) {
	spec, err := Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	const period = 2
	d := New(spec, 42).WithPartitioner(IncrementalClasses{Period: period})
	// Stage s (rounds [s·period, (s+1)·period)) exposes exactly 2+s classes.
	for round := 0; round < 8; round++ {
		visible := incrementalStartClasses + round/period
		seen := map[int]bool{}
		for id := 0; id < 4; id++ {
			cd := d.ClientAt(id, round)
			if len(cd.Classes()) != visible {
				t.Fatalf("round %d: %d visible classes, want %d", round, len(cd.Classes()), visible)
			}
			for i := 0; i < cd.Len(); i++ {
				c := cd.shard.ClassAt(i)
				if c >= visible {
					t.Fatalf("round %d: client %d example %d drew class %d outside the visible %d", round, id, i, c, visible)
				}
				seen[c] = true
			}
		}
		if len(seen) != visible {
			t.Fatalf("round %d: only %d of %d visible classes materialized across 4 clients", round, len(seen), visible)
		}
	}
	// Rounds inside one stage share their shard bit-for-bit; a stage
	// boundary redraws it.
	cd0, cd1 := d.ClientAt(0, 0), d.ClientAt(0, 1)
	if labelDigest(d, cd0) != labelDigest(d, cd1) {
		t.Fatal("rounds 0 and 1 share a stage but drew different shards")
	}
	if labelDigest(d, cd0) == labelDigest(d, d.ClientAt(0, period)) {
		t.Fatal("stage boundary did not redraw the shard")
	}
	// The visible set saturates at the benchmark's class count.
	far := d.ClientAt(0, 1000)
	if len(far.Classes()) != spec.Classes {
		t.Fatalf("far-horizon round exposes %d classes, want cap %d", len(far.Classes()), spec.Classes)
	}
}

func TestDecayingLabelNoiseHalves(t *testing.T) {
	spec, err := Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	const period = 3
	d := New(spec, 42).WithPartitioner(DecayingLabelNoise{Period: period})
	for id := 0; id < 4; id++ {
		r0 := d.ClientAt(id, 0).shard.FlipRate
		if r0 <= 0 || r0 > labelNoiseMaxRate {
			t.Fatalf("client %d base rate %v outside (0, %v]", id, r0, labelNoiseMaxRate)
		}
		rp := d.ClientAt(id, period).shard.FlipRate
		if diff := rp - r0/2; diff < -1e-15 || diff > 1e-15 {
			t.Fatalf("client %d rate at round %d = %v, want half of %v", id, period, rp, r0)
		}
	}
	// Flip coins are redrawn per round: some example's realized label
	// changes between rounds within one rate regime.
	cd0, cd1 := d.ClientAt(0, 0), d.ClientAt(0, 1)
	if labelDigest(d, cd0) == labelDigest(d, cd1) {
		t.Fatal("decaying-noise rounds 0 and 1 drew identical flip coins")
	}
	// Aggregate mislabelling must trend to zero as the rate decays.
	flips := func(round int) int {
		n := 0
		for id := 0; id < 4; id++ {
			cd := d.ClientAt(id, round)
			for i := 0; i < cd.Len(); i++ {
				if labelAt(d, cd, i) != cd.shard.ClassAt(i) {
					n++
				}
			}
		}
		return n
	}
	early, late := flips(0), flips(10*period)
	if late >= early {
		t.Fatalf("flips did not decay: %d at round 0 vs %d at round %d", early, late, 10*period)
	}
}

// TestTimeVaryingOrderInvariance: a shard is a pure function of
// (seed, id, round) — the order rounds and clients are queried in, and
// whether the sample cache is warm or cold, must not change a single
// label. This is the regression for the round-blind keys of the scalar-draw
// memo the dataset once kept: a warmed memo served round-r draws for
// round r′.
func TestTimeVaryingOrderInvariance(t *testing.T) {
	spec, err := Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	const rounds, clients = 6, 3
	for _, part := range []Partitioner{IncrementalClasses{Period: 2}, DecayingLabelNoise{Period: 2}} {
		// Fresh dataset per (id, round): every digest computed on a cold cache.
		cold := map[[2]int]uint64{}
		for id := 0; id < clients; id++ {
			for r := 0; r < rounds; r++ {
				d := New(spec, 42).WithPartitioner(part)
				cold[[2]int{id, r}] = labelDigest(d, d.ClientAt(id, r))
			}
		}
		// One shared dataset, rounds visited in descending order with clients
		// interleaved — maximally unlike the cold pass.
		warm := New(spec, 42).WithPartitioner(part)
		for r := rounds - 1; r >= 0; r-- {
			for id := clients - 1; id >= 0; id-- {
				got := labelDigest(warm, warm.ClientAt(id, r))
				if got != cold[[2]int{id, r}] {
					t.Fatalf("%s: client %d round %d: warmed-cache shard diverges from cold recomputation", part.Name(), id, r)
				}
			}
		}
		// Re-query after everything is cached: still identical.
		for id := 0; id < clients; id++ {
			for r := 0; r < rounds; r++ {
				if labelDigest(warm, warm.ClientAt(id, r)) != cold[[2]int{id, r}] {
					t.Fatalf("%s: client %d round %d: cached re-query diverges", part.Name(), id, r)
				}
			}
		}
	}
}

// TestDerivedCacheRoundKeys pins the round component of the draw keys: a
// round-keyed draw depends on its round and on nothing drawn before it.
// (The scalar-draw memo whose round-blind keys once served round-r draws
// for round r′ is gone; these draws are direct Split streams.)
func TestDerivedCacheRoundKeys(t *testing.T) {
	spec, err := Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	inc := IncrementalClasses{Period: 2}
	picks := func(d *Dataset, round int) []int {
		sh := inc.ShardAt(d, 1, round)
		out := make([]int, 64)
		for i := range out {
			out[i] = sh.ClassAt(i)
		}
		return out
	}
	// Reference picks from datasets that only ever saw one round each.
	ref0, ref5 := picks(New(spec, 42), 0), picks(New(spec, 42), 5)
	d := New(spec, 42)
	if got := picks(d, 5); !slices.Equal(got, ref5) {
		t.Fatalf("round-5 picks = %v, want %v", got, ref5)
	}
	if got := picks(d, 0); !slices.Equal(got, ref0) {
		t.Fatalf("round-0 picks after round-5 draws = %v, want %v", got, ref0)
	}
	if slices.Equal(ref0, ref5) {
		t.Fatal("round-keyed pick stream identical across stages")
	}
	// Same discipline for the flip-coin stream; at rate 1 every coin flips,
	// so the result is the stream's replacement class.
	y0 := New(spec, 42).extraFlipAtRound(0, 1, labelDecayFlip, 1, 2, 0)
	d2 := New(spec, 42)
	d2.extraFlipAtRound(0, 1, labelDecayFlip, 1, 2, 7)
	if got := d2.extraFlipAtRound(0, 1, labelDecayFlip, 1, 2, 0); got != y0 {
		t.Fatal("round-0 flip draw changed by a round-7 draw")
	}
}
