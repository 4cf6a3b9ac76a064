package experiments

import (
	"fmt"

	"fedcdp/internal/accountant"
	"fedcdp/internal/config"
	"fedcdp/internal/dataset"
)

// Table6 reproduces Table VI: privacy composition of Fed-SDP and Fed-CDP via
// the moments accountant. This experiment is a pure computation at the
// paper's exact parameters (no scaling): global sampling rate q = 0.01 for
// Fed-CDP, client rate q₂ = Kt/K = 0.1 for Fed-SDP, σ = 6, δ = 1e-5, and
// T = {100, 100, 60, 10, 3} rounds with L ∈ {1, 100} local iterations.
func Table6(*config.Experiment) (*Report, error) {
	r := &Report{
		Name:  "table6",
		Title: "Privacy composition ε (δ=1e-5, σ=6, q_cdp=0.01, q_sdp=0.1)",
		Header: []string{
			"dataset", "T",
			"cdp L=1 (rdp)", "cdp L=1 (eq2)", "paper",
			"cdp L=100 (rdp)", "cdp L=100 (eq2)", "paper",
			"sdp (rdp)", "sdp (eq2)", "paper",
		},
		Notes: []string{
			"rdp = our moments/RDP accountant; eq2 = the paper's Equation (2) closed form with calibrated c2",
			"expected shape: ε grows ~sqrt(T·L); Fed-CDP(L=1) << Fed-CDP(L=100) < Fed-SDP; Fed-SDP identical for L=1 and L=100",
			"Fed-SDP supports no instance-level guarantee (client-level only)",
		},
	}
	for _, name := range dataset.Names() {
		spec, err := dataset.Get(name)
		if err != nil {
			return nil, err
		}
		T := spec.Rounds
		p := func(L int) accountant.Params {
			return accountant.Params{
				TotalData:  100 * spec.BatchSize * 100, // N chosen so q = B·Kt/N = 0.01 with Kt=100
				TotalK:     1000,
				PerRoundKt: 100,
				BatchSize:  spec.BatchSize,
				LocalIters: L,
				Rounds:     T,
				Sigma:      6,
				Delta:      1e-5,
			}
		}
		cdp1 := accountant.FedCDPEpsilon(p(1))
		cdp1e := accountant.FedCDPAbadi(p(1))
		cdp100 := accountant.FedCDPEpsilon(p(100))
		cdp100e := accountant.FedCDPAbadi(p(100))
		sdp := accountant.FedSDPEpsilon(p(100))
		sdpe := accountant.FedSDPAbadi(p(100))
		r.Rows = append(r.Rows, []string{
			name, fmt.Sprint(T),
			f4(cdp1), f4(cdp1e), f4(paperTable6CDP1[name]),
			f4(cdp100), f4(cdp100e), f4(paperTable6CDP100[name]),
			f4(sdp), f4(sdpe), f4(paperTable6SDP[name]),
		})
	}
	return r, nil
}
