package core_test

import (
	"fmt"
	"slices"
	"testing"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

// serverRefusal is the text that refuses a server-placed method on a wire
// deployment, with the method and whose round servers.
const serverRefusal = "method %s sanitizes at the server, which %s round servers do not do (updates would fold without clip or noise while ε is still charged); use fedsdp, the client-side placement with the same accounting"

// TestMethodTable holds every row of the method table to the surfaces that
// read it: the config accepts its name, its strategy carries its label, Leak
// answers every adversary, the accountant charges exactly the rows with a
// guarantee, and the wire deployments refuse exactly the server-placed rows.
func TestMethodTable(t *testing.T) {
	rows := core.MethodRows()
	names := make([]string, len(rows))
	for i, row := range rows {
		names[i] = row.Name
	}
	if !slices.Equal(names, core.Methods()) {
		t.Fatalf("Methods() = %v, want the table's order %v", core.Methods(), names)
	}
	for _, row := range rows {
		t.Run(row.Name, func(t *testing.T) {
			e := config.Default()
			e.Method.Name = row.Name
			if err := e.Validate(); err != nil {
				t.Fatalf("config.Validate: %v", err)
			}
			cfg := e.CoreConfig()
			if s, err := cfg.Strategy(); err != nil || s.Name() != row.Label {
				t.Fatalf("Strategy() = %v, %v; want a strategy named %q", s, err, row.Label)
			}
			for threat := 0; threat <= 2; threat++ {
				if g, err := cfg.Leak(threat, 0, batchGrads(3), tensor.NewRNG(1)); err != nil || len(g) != 2 {
					t.Fatalf("Leak type %d = %d tensors, %v", threat, len(g), err)
				}
			}

			r, err := cfg.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			hist := &fl.History{Rounds: []fl.RoundStats{{Committed: true}}}
			core.AnnotateEpsilon(r.Cfg, r.Spec, hist)
			if eps := hist.Rounds[0].Epsilon; (eps > 0) != row.Guarantee {
				t.Fatalf("one committed round charged ε = %v; guarantee %v", eps, row.Guarantee)
			}

			_, dialErr := e.DialIn()
			simnet := *e
			simnet.Runtime.Simnet = true
			simnetErr := simnet.Validate()
			if !row.AtServer {
				if dialErr != nil || simnetErr != nil {
					t.Fatalf("a row placed off the server is refused: DialIn %v, runtime.simnet %v", dialErr, simnetErr)
				}
				return
			}
			_, simErr := core.RunSimnet(cfg) // refused before anything deploys
			for _, c := range []struct {
				surface string
				err     error
				want    string
			}{
				{"RunSimnet", simErr, "core: " + fmt.Sprintf(serverRefusal, row.Name, "the simnet")},
				{"DialIn", dialErr, "config: method.name: " + fmt.Sprintf(serverRefusal, row.Name, "fedserve's")},
				{"runtime.simnet", simnetErr, "config: method.name: " + fmt.Sprintf(serverRefusal, row.Name, "runtime.simnet's")},
			} {
				if c.err == nil || c.err.Error() != c.want {
					t.Errorf("%s refuses a server-placed row with %v, want %q", c.surface, c.err, c.want)
				}
			}
		})
	}
}

// batchGrads is n examples' gradients over a two-tensor model.
func batchGrads(n int) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, n)
	for i := range out {
		w := tensor.FromSlice([]float64{1, -2, 3, -4, 5, -6}, 2, 3)
		b := tensor.FromSlice([]float64{float64(i), 0.5}, 2)
		out[i] = []*tensor.Tensor{w, b}
	}
	return out
}
