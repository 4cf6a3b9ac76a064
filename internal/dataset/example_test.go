package dataset_test

import (
	"fmt"

	"fedcdp/internal/dataset"
)

// The default partition is the paper's Table I rule: MNIST clients hold 500
// examples from 2 contiguous classes.
func ExampleIID() {
	spec, _ := dataset.Get("mnist")
	d := dataset.NewPartitioned(spec, 42, dataset.IID{})
	c := d.Client(3)
	fmt.Println("examples:", c.Len(), "classes:", c.Classes())
	// Output: examples: 500 classes: [6 7]
}

// Dirichlet label skew: each client's class mix is drawn from Dir(α).
// Small α concentrates clients on few classes — the realized label entropy
// collapses as α shrinks.
func ExampleDirichlet() {
	spec, _ := dataset.Get("mnist")
	for _, alpha := range []float64{100, 0.1} {
		d := dataset.NewPartitioned(spec, 42, dataset.Dirichlet{Alpha: alpha})
		fmt.Printf("alpha=%-4g %s\n", alpha, d.Stats(16))
	}
	// Output:
	// alpha=100  clients=16 examples/client min=500 mean=500 max=500 classes/client=10.0 label-entropy=3.21 bits
	// alpha=0.1  clients=16 examples/client min=500 mean=500 max=500 classes/client=4.0 label-entropy=1.10 bits
}

// Pathological shard assignment (McMahan et al.): classes are shuffled once
// and dealt out in shards, so most clients see exactly Shards classes in
// contiguous label runs.
func ExamplePathological() {
	spec, _ := dataset.Get("mnist")
	d := dataset.NewPartitioned(spec, 42, dataset.Pathological{Shards: 2})
	for id := 0; id < 3; id++ {
		fmt.Printf("client %d holds classes %v\n", id, d.Client(id).Classes())
	}
	// Output:
	// client 0 holds classes [5 7]
	// client 1 holds classes [0 6]
	// client 2 holds classes [3 9]
}

// Quantity skew: same class mix everywhere, but shard sizes follow a
// truncated power law — the partition weighted FedAvg (fl.AggWeighted)
// exists to aggregate correctly.
func ExampleQuantitySkew() {
	spec, _ := dataset.Get("mnist")
	d := dataset.NewPartitioned(spec, 42, dataset.QuantitySkew{})
	for id := 0; id < 4; id++ {
		fmt.Printf("client %d holds %d examples\n", id, d.Client(id).Len())
	}
	// Output:
	// client 0 holds 370 examples
	// client 1 holds 405 examples
	// client 2 holds 353 examples
	// client 3 holds 361 examples
}

// Label-noise skew: shards match the iid partition, but each client flips
// labels at its own rate ρ_k ~ U[0, 0.4] — heterogeneous annotation quality.
func ExampleLabelNoiseSkew() {
	spec, _ := dataset.Get("mnist")
	d := dataset.NewPartitioned(spec, 42, dataset.LabelNoiseSkew{})
	iid := dataset.NewPartitioned(spec, 42, dataset.IID{})
	for _, id := range []int{0, 1} {
		diff := 0
		for i := 0; i < 100; i++ {
			_, y := d.Client(id).Get(i)
			_, ry := iid.Client(id).Get(i)
			if y != ry {
				diff++
			}
		}
		fmt.Printf("client %d: %d/100 labels flipped vs iid\n", id, diff)
	}
	// Output:
	// client 0: 27/100 labels flipped vs iid
	// client 1: 0/100 labels flipped vs iid
}

// Scenarios resolve partitioners by name — the registry the data.scenario
// config key and core.Config.Scenario go through.
func ExampleScenario() {
	sc := dataset.Scenario{Name: dataset.ScenarioDirichlet, Alpha: 0.1}
	p, _ := sc.Partitioner()
	fmt.Println(sc, "->", p.Name())
	fmt.Println(dataset.ScenarioNames())
	// Output:
	// dirichlet(alpha=0.1) -> dirichlet
	// [iid dirichlet pathological quantity labelnoise incremental decaynoise]
}
