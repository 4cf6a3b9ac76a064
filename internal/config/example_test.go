package config_test

import (
	"fmt"
	"log"

	"fedcdp/internal/config"
)

// A config document fully determines a run: parse it, validate it, resolve
// it to the core configuration, and stamp its digest everywhere the run's
// identity matters. Omitted keys mean Default, so a document
// only says what it changes.
func Example() {
	doc := []byte(`version: 1
seed: 7

data:
  dataset: cancer
  scenario: dirichlet
  alpha: 0.1

method:
  name: fedcdp
  sigma: 0.05

training:
  k: 12
  kt: 6
  rounds: 4
`)
	exp, err := config.Parse(doc)
	if err != nil {
		log.Fatal(err)
	}
	if err := exp.Validate(); err != nil {
		log.Fatal(err)
	}
	cfg := exp.CoreConfig()
	fmt.Printf("%s/%s seed=%d rounds=%d\n", cfg.Dataset, cfg.Method, cfg.Seed, cfg.Rounds)
	fmt.Printf("digest is %d hex digits, stamped: %v\n", len(exp.Digest()), cfg.ConfigDigest == exp.Digest())
	// The digest identifies the experiment, not the document: the same
	// settings in any key order, quoting or comment style digest alike.
	reordered := []byte("method:\n  sigma: 0.05\nseed: 7\ndata:\n  alpha: 0.1\n  scenario: dirichlet\n  dataset: cancer\ntraining:\n  rounds: 4\n  kt: 6\n  k: 12\n")
	exp2, err := config.Parse(reordered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reordered document digests alike:", exp2.Digest() == exp.Digest())
	// Output:
	// cancer/fedcdp seed=7 rounds=4
	// digest is 16 hex digits, stamped: true
	// reordered document digests alike: true
}
