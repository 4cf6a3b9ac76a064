package fl

import (
	"sync"
	"testing"

	"fedcdp/internal/tensor"
)

func onesUpdate(shape []int, v float64) []*tensor.Tensor {
	t := tensor.New(shape...)
	t.Fill(v)
	return []*tensor.Tensor{t}
}

func TestFedSGDAggregatorIsMean(t *testing.T) {
	params := []*tensor.Tensor{tensor.New(3, 2)}
	agg := NewFedSGD()
	agg.Begin(params)
	agg.Fold(onesUpdate([]int{3, 2}, 2))
	agg.Fold(onesUpdate([]int{3, 2}, 4))
	if agg.Count() != 2 {
		t.Fatalf("count %d, want 2", agg.Count())
	}
	agg.Commit(params)
	for _, v := range params[0].Data() {
		if v != 3 { // mean of 2 and 4, exact in float64
			t.Fatalf("committed %v, want 3", v)
		}
	}
}

func TestFedSGDAggregatorEmptyCommitIsNoOp(t *testing.T) {
	params := onesUpdate([]int{4}, 7)
	agg := NewFedSGD()
	agg.Begin(params)
	agg.Commit(params)
	for _, v := range params[0].Data() {
		if v != 7 {
			t.Fatal("empty fold must leave params unchanged")
		}
	}
}

func TestFedSGDAggregatorReusedAcrossRounds(t *testing.T) {
	// A second Begin must fully reset the accumulator.
	params := []*tensor.Tensor{tensor.New(4)}
	agg := NewFedSGD()
	agg.Begin(params)
	agg.Fold(onesUpdate([]int{4}, 100))
	agg.Commit(params)
	agg.Begin(params)
	agg.Fold(onesUpdate([]int{4}, 1))
	agg.Commit(params)
	for _, v := range params[0].Data() {
		if v != 101 { // 100 from round 1, +1 from round 2
			t.Fatalf("got %v, want 101 — stale accumulator state", v)
		}
	}
}

func TestFedAvgAggregatorMatchesFedSGD(t *testing.T) {
	mk := func() []*tensor.Tensor { return onesUpdate([]int{5}, 10) }
	u1, u2 := onesUpdate([]int{5}, 2), onesUpdate([]int{5}, 4)

	pSGD := mk()
	sgd := NewFedSGD()
	sgd.Begin(pSGD)
	sgd.Fold(u1)
	sgd.Fold(u2)
	sgd.Commit(pSGD)

	pAvg := mk()
	avg := NewFedAvg()
	avg.Begin(pAvg)
	avg.Fold(u1)
	avg.Fold(u2)
	avg.Commit(pAvg)

	for i, v := range pAvg[0].Data() {
		if diff := v - pSGD[0].Data()[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("FedAvg %v vs FedSGD %v", v, pSGD[0].Data()[i])
		}
	}
}

func TestCollectAggregatorRetainsUpdates(t *testing.T) {
	params := []*tensor.Tensor{tensor.New(2)}
	agg := newCollect()
	agg.Begin(params)
	agg.Fold(onesUpdate([]int{2}, 1))
	agg.Fold(onesUpdate([]int{2}, 2))
	agg.Commit(params)
	if agg.Count() != 2 || len(agg.Updates()) != 2 {
		t.Fatalf("collected %d updates, want 2", agg.Count())
	}
	for _, v := range params[0].Data() {
		if v != 0 {
			t.Fatal("collect must never modify params")
		}
	}
	agg.Begin(params)
	if agg.Count() != 0 {
		t.Fatal("Begin must reset the collection")
	}
}

// TestConcurrentFoldIsSafe folds from many goroutines at once — run under
// -race (the CI race job does) to pin the Aggregator's concurrency
// contract, which the TCP server relies on.
func TestConcurrentFoldIsSafe(t *testing.T) {
	const folders = 32
	params := []*tensor.Tensor{tensor.New(64)}
	agg := NewFedSGD()
	agg.Begin(params)
	var wg sync.WaitGroup
	for i := 0; i < folders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			agg.Fold(onesUpdate([]int{64}, 1))
		}()
	}
	wg.Wait()
	if agg.Count() != folders {
		t.Fatalf("count %d, want %d", agg.Count(), folders)
	}
	agg.Commit(params)
	for _, v := range params[0].Data() {
		if v != 1 { // mean of 32 ones, integer arithmetic is exact
			t.Fatalf("committed %v, want 1", v)
		}
	}
}

func TestAggregateFedSGDSharedHelper(t *testing.T) {
	params := []*tensor.Tensor{tensor.New(3)}
	AggregateFedSGD(params, [][]*tensor.Tensor{onesUpdate([]int{3}, 3), onesUpdate([]int{3}, 5)})
	for _, v := range params[0].Data() {
		if v != 4 {
			t.Fatalf("got %v, want 4", v)
		}
	}
	AggregateFedSGD(params, nil) // no-op
	for _, v := range params[0].Data() {
		if v != 4 {
			t.Fatal("empty update set must leave params unchanged")
		}
	}
}
