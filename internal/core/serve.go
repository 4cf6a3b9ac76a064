package core

import (
	"fmt"
	"io"
	"net"
	"time"

	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
)

// Serve executes the configured experiment as the server of a real-network
// deployment: the round engine drives one fl.RoundServer on ln, whose
// clients are other processes (cmd/fedclient) given the same Config. It is
// the loop Run and RunSimnet run, so cohort sizes, the dropout coin, the
// evaluation schedule and ε over committed rounds are theirs. Each closed
// round is reported on progress; ln is closed on return. What no dial-in
// server can honor (plans, fedsdp-server) config's DialIn refuses beforehand.
func Serve(cfg Config, ln net.Listener, secure bool, progress io.Writer) (*Result, error) {
	defer ln.Close() // again after the runner's Close: a harmless error
	return cfg.deploy(func(r *Resolved, fc fl.Config) (fl.RoundRunner, error) {
		agg, err := fl.NewAggregatorFor(fc.Aggregation, fc.Shards, 0, 0)
		if err != nil {
			return nil, err
		}
		srv := fl.NewRoundServerOn(ln)
		srv.Secure, srv.Codec = secure, r.Cfg.Codec
		return &dialIn{cfg: fc, srv: srv, agg: agg, progress: progress}, nil
	})
}

// dialIn is the round engine's runner for clients it does not drive. The
// cohort is a head count, not a roster: the draw and the dropout coin decide
// how many sessions a round admits, but who fills them is whoever dials — a
// remote process picks its own id; the server cannot summon the ids drawn.
type dialIn struct {
	cfg      fl.Config
	srv      *fl.RoundServer
	agg      fl.Aggregator
	progress io.Writer
}

// Restart fails the run: only a plan asks for one, and closing the server
// would answer parked clients "no further rounds" — to them a clean finish.
func (d *dialIn) Restart(round int) error {
	return fmt.Errorf("core: a dial-in server cannot replay a planned restart (round %d); fault plans run on the simnet fabric", round)
}

func (d *dialIn) Close() { d.srv.Close() }

func (d *dialIn) Round(round int, cohort []int, global *nn.Model) (rs fl.RoundStats, err error) {
	start := time.Now()
	// A cohort the dropout coin emptied has nobody to wait for.
	res := fl.RoundResult{Committed: 0 >= d.cfg.MinQuorum}
	if len(cohort) > 0 {
		if res, err = d.srv.StreamRound(round, global.Params(), d.cfg.Round, d.agg, fl.RoundOptions{
			Clients: len(cohort), Deadline: d.cfg.RoundDeadline, MinQuorum: d.cfg.MinQuorum,
		}); err != nil {
			return rs, fmt.Errorf("core: serve round %d: %w", round, err)
		}
	}
	status, dups := "committed", ""
	if !res.Committed {
		status = "below quorum — model unchanged"
	}
	if res.Duplicates > 0 {
		dups = fmt.Sprintf(", %d duplicate", res.Duplicates)
	}
	fmt.Fprintf(d.progress, "round %d: %d/%d updates folded (%d failed%s), %s, %.1fs\n",
		round, res.Folded, len(cohort), res.Failed, dups, status, time.Since(start).Seconds())
	return fl.RoundStats{Clients: res.Folded, Dropped: len(cohort) - res.Folded, Committed: res.Committed}, nil
}
