package config

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// field is one schema entry: where the value lives in the document
// (section, key), which command-line flag overrides it ("" = config-only),
// and how to set/render it as a string. One ordered table drives Parse,
// Canonical and the flag-override path, so the three can never disagree
// about what a key means.
type field struct {
	section string // "" for top-level keys
	key     string
	flag    string // cmd flag name that overrides this field, if any
	set     func(e *Experiment, v string) error
	get     func(e *Experiment) string
}

// sectionOrder fixes the canonical section layout. The empty name is the
// top-level block (version, seed).
var sectionOrder = []string{"", "model", "data", "method", "runtime", "faults", "aggregation", "codec", "training", "experiment", "sweep"}

// schema returns the full field table in canonical order.
func schema() []field {
	return []field{
		fInt("", "version", "", func(e *Experiment) *int { return &e.Version }),
		fI64("", "seed", "seed", func(e *Experiment) *int64 { return &e.Seed }),

		fStr("model", "precision", "precision", func(e *Experiment) *string { return &e.Model.Precision }),

		fStr("data", "dataset", "dataset", func(e *Experiment) *string { return &e.Data.Dataset }),
		fStr("data", "scenario", "scenario", func(e *Experiment) *string { return &e.Data.Scenario }),
		fF64("data", "alpha", "alpha", func(e *Experiment) *float64 { return &e.Data.Alpha }),
		fInt("data", "shards", "shards", func(e *Experiment) *int { return &e.Data.Shards }),
		fInt("data", "period", "period", func(e *Experiment) *int { return &e.Data.Period }),

		fStr("method", "name", "method", func(e *Experiment) *string { return &e.Method.Name }),
		fF64("method", "clip", "clip", func(e *Experiment) *float64 { return &e.Method.Clip }),
		fF64("method", "sigma", "sigma", func(e *Experiment) *float64 { return &e.Method.Sigma }),
		fF64("method", "accountant-sigma", "", func(e *Experiment) *float64 { return &e.Method.AccountantSigma }),
		fF64("method", "delta", "", func(e *Experiment) *float64 { return &e.Method.Delta }),
		fF64("method", "decay-from", "decay-from", func(e *Experiment) *float64 { return &e.Method.DecayFrom }),
		fF64("method", "decay-to", "decay-to", func(e *Experiment) *float64 { return &e.Method.DecayTo }),
		fF64("method", "share", "share", func(e *Experiment) *float64 { return &e.Method.ShareFraction }),
		fF64("method", "compress", "compress", func(e *Experiment) *float64 { return &e.Method.Compress }),

		fBool("runtime", "simnet", "simnet", func(e *Experiment) *bool { return &e.Runtime.Simnet }),
		fDur("runtime", "deadline", "deadline", func(e *Experiment) *time.Duration { return &e.Runtime.Deadline }),
		fInt("runtime", "quorum", "quorum", func(e *Experiment) *int { return &e.Runtime.Quorum }),
		fF64("runtime", "dropout", "dropout", func(e *Experiment) *float64 { return &e.Runtime.Dropout }),

		fStr("faults", "plan", "faults", func(e *Experiment) *string { return &e.Faults.Plan }),
		fStr("faults", "population", "population", func(e *Experiment) *string { return &e.Faults.Population }),

		fStr("aggregation", "rule", "agg", func(e *Experiment) *string { return &e.Aggregation.Rule }),
		fInt("aggregation", "shards", "agg-shards", func(e *Experiment) *int { return &e.Aggregation.Shards }),
		fInt("aggregation", "tree-fanout", "tree", func(e *Experiment) *int { return &e.Aggregation.TreeFanout }),
		fStr("aggregation", "sampler", "sampler", func(e *Experiment) *string { return &e.Aggregation.Sampler }),
		fInt("aggregation", "mux-workers", "mux-workers", func(e *Experiment) *int { return &e.Aggregation.MuxWorkers }),

		fStr("codec", "wire", "codec", func(e *Experiment) *string { return &e.Codec.Wire }),
		fInt("codec", "quant", "quant", func(e *Experiment) *int { return &e.Codec.Quant }),

		fInt("training", "k", "k", func(e *Experiment) *int { return &e.Training.K }),
		fInt("training", "kt", "kt", func(e *Experiment) *int { return &e.Training.Kt }),
		fInt("training", "rounds", "rounds", func(e *Experiment) *int { return &e.Training.Rounds }),
		fInt("training", "planned-rounds", "", func(e *Experiment) *int { return &e.Training.PlannedRounds }),
		fInt("training", "batch", "batch", func(e *Experiment) *int { return &e.Training.BatchSize }),
		fInt("training", "iters", "iters", func(e *Experiment) *int { return &e.Training.LocalIters }),
		fF64("training", "lr", "lr", func(e *Experiment) *float64 { return &e.Training.LR }),
		fInt("training", "val-examples", "val", func(e *Experiment) *int { return &e.Training.ValExamples }),
		fInt("training", "eval-every", "eval-every", func(e *Experiment) *int { return &e.Training.EvalEvery }),
		fInt("training", "parallelism", "", func(e *Experiment) *int { return &e.Training.Parallelism }),

		fStr("experiment", "name", "exp", func(e *Experiment) *string { return &e.Experiment.Name }),
		fF64("experiment", "scale", "scale", func(e *Experiment) *float64 { return &e.Experiment.Scale }),

		fSeeds("sweep", "seeds", "", func(e *Experiment) *[]int64 { return &e.Sweep.Seeds }),
	}
}

func fInt(sec, key, fl string, p func(*Experiment) *int) field {
	return field{sec, key, fl,
		func(e *Experiment, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("%s: not an integer: %q", key, v)
			}
			*p(e) = n
			return nil
		},
		func(e *Experiment) string { return strconv.Itoa(*p(e)) },
	}
}

func fI64(sec, key, fl string, p func(*Experiment) *int64) field {
	return field{sec, key, fl,
		func(e *Experiment, v string) error {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("%s: not an integer: %q", key, v)
			}
			*p(e) = n
			return nil
		},
		func(e *Experiment) string { return strconv.FormatInt(*p(e), 10) },
	}
}

func fF64(sec, key, fl string, p func(*Experiment) *float64) field {
	return field{sec, key, fl,
		func(e *Experiment, v string) error {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("%s: not a number: %q", key, v)
			}
			*p(e) = f
			return nil
		},
		// 'g'/-1 is the shortest representation that reparses to the exact
		// same float64, so get∘set is the identity and digests are stable.
		func(e *Experiment) string { return strconv.FormatFloat(*p(e), 'g', -1, 64) },
	}
}

func fStr(sec, key, fl string, p func(*Experiment) *string) field {
	return field{sec, key, fl,
		func(e *Experiment, v string) error {
			s, err := unquote(v)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			*p(e) = s
			return nil
		},
		func(e *Experiment) string { return quoteIfNeeded(*p(e)) },
	}
}

func fBool(sec, key, fl string, p func(*Experiment) *bool) field {
	return field{sec, key, fl,
		func(e *Experiment, v string) error {
			switch v {
			case "true":
				*p(e) = true
			case "false":
				*p(e) = false
			default:
				return fmt.Errorf("%s: not a boolean (true/false): %q", key, v)
			}
			return nil
		},
		func(e *Experiment) string { return strconv.FormatBool(*p(e)) },
	}
}

func fDur(sec, key, fl string, p func(*Experiment) *time.Duration) field {
	return field{sec, key, fl,
		func(e *Experiment, v string) error {
			d, err := time.ParseDuration(v)
			if err != nil {
				return fmt.Errorf("%s: not a duration: %q", key, v)
			}
			*p(e) = d
			return nil
		},
		func(e *Experiment) string { return (*p(e)).String() },
	}
}

func fSeeds(sec, key, fl string, p func(*Experiment) *[]int64) field {
	return field{sec, key, fl,
		func(e *Experiment, v string) error {
			if !strings.HasPrefix(v, "[") || !strings.HasSuffix(v, "]") {
				return fmt.Errorf("%s: not a list (want [1, 2, ...]): %q", key, v)
			}
			inner := strings.TrimSpace(v[1 : len(v)-1])
			if inner == "" {
				*p(e) = nil
				return nil
			}
			parts := strings.Split(inner, ",")
			out := make([]int64, len(parts))
			for i, part := range parts {
				n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
				if err != nil {
					return fmt.Errorf("%s: element %d not an integer: %q", key, i, strings.TrimSpace(part))
				}
				out[i] = n
			}
			*p(e) = out
			return nil
		},
		func(e *Experiment) string {
			elems := make([]string, len(*p(e)))
			for i, n := range *p(e) {
				elems[i] = strconv.FormatInt(n, 10)
			}
			return "[" + strings.Join(elems, ", ") + "]"
		},
	}
}

// unquote resolves an optionally Go-quoted scalar. Quoting is only needed
// for values the plain grammar cannot carry (empty strings, leading '#',
// surrounding whitespace).
func unquote(v string) (string, error) {
	if !strings.HasPrefix(v, `"`) {
		return v, nil
	}
	s, err := strconv.Unquote(v)
	if err != nil {
		return "", fmt.Errorf("bad quoted string %s", v)
	}
	return s, nil
}

func quoteIfNeeded(v string) string {
	if v == "" || strings.TrimSpace(v) != v ||
		strings.HasPrefix(v, `"`) || strings.HasPrefix(v, "#") || strings.HasPrefix(v, "[") ||
		strings.Contains(v, " #") || strings.ContainsAny(v, "\n\r\t") {
		return strconv.Quote(v)
	}
	return v
}

// schemaIndex holds the lookup structures the parser and override path
// share, built once from the table.
type schemaIndex struct {
	fields   []field
	bySec    map[string]map[string]field
	secKeys  map[string][]string
	byFlag   map[string]field
	sections map[string]bool
}

func buildIndex() *schemaIndex {
	idx := &schemaIndex{
		fields:   schema(),
		bySec:    map[string]map[string]field{},
		secKeys:  map[string][]string{},
		byFlag:   map[string]field{},
		sections: map[string]bool{},
	}
	for _, f := range idx.fields {
		if idx.bySec[f.section] == nil {
			idx.bySec[f.section] = map[string]field{}
		}
		idx.bySec[f.section][f.key] = f
		idx.secKeys[f.section] = append(idx.secKeys[f.section], f.key)
		idx.sections[f.section] = true
		if f.flag != "" {
			idx.byFlag[f.flag] = f
		}
	}
	return idx
}

var index = buildIndex()

// Override copies the field the named command-line flag maps to from src
// onto dst, reporting whether the flag is config-mapped at all. Flags with
// no config meaning (-addr, -format, -checkpoint-in, ...) return false and
// are left to the binary.
func Override(dst *Experiment, flagName string, src *Experiment) bool {
	f, ok := index.byFlag[flagName]
	if !ok {
		return false
	}
	// get/set round-trip exactly by construction, so this cannot fail.
	if err := f.set(dst, f.get(src)); err != nil {
		panic(fmt.Sprintf("config: override %s: %v", flagName, err))
	}
	return true
}

// ApplyFlagOverrides re-stamps every explicitly-set command-line flag onto
// the config-loaded experiment: src is the experiment the flag values
// describe, and each flag the user actually passed (per fs.Visit) wins
// over the file. Returns the config-mapped flag names that were applied.
func ApplyFlagOverrides(fs *flag.FlagSet, dst, src *Experiment) []string {
	var applied []string
	fs.Visit(func(fl *flag.Flag) {
		if Override(dst, fl.Name, src) {
			applied = append(applied, fl.Name)
		}
	})
	return applied
}
