package config

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// field is one schema entry: where the value lives in the document
// (section, key) and how to set/render it as a string. One ordered table
// drives Parse, Set and Canonical, so a file line and a -set override can
// never disagree about what a key means.
type field struct {
	section string // "" for top-level keys
	key     string
	set     func(e *Experiment, v string) error // errors say what v is not; setKey names the key
	get     func(e *Experiment) string
}

// sectionOrder fixes the canonical section layout. The empty name is the
// top-level block (version, seed).
var sectionOrder = []string{"", "model", "data", "method", "runtime", "faults", "aggregation", "codec", "training", "experiment", "sweep"}

// schema returns the full field table in canonical order.
func schema() []field {
	return []field{
		fInt("", "version", func(e *Experiment) *int { return &e.Version }),
		fI64("", "seed", func(e *Experiment) *int64 { return &e.Seed }),

		fStr("model", "precision", func(e *Experiment) *string { return &e.Model.Precision }),

		fStr("data", "dataset", func(e *Experiment) *string { return &e.Data.Dataset }),
		fStr("data", "scenario", func(e *Experiment) *string { return &e.Data.Scenario }),
		fF64("data", "alpha", func(e *Experiment) *float64 { return &e.Data.Alpha }),
		fInt("data", "shards", func(e *Experiment) *int { return &e.Data.Shards }),
		fInt("data", "period", func(e *Experiment) *int { return &e.Data.Period }),

		fStr("method", "name", func(e *Experiment) *string { return &e.Method.Name }),
		fF64("method", "clip", func(e *Experiment) *float64 { return &e.Method.Clip }),
		fF64("method", "sigma", func(e *Experiment) *float64 { return &e.Method.Sigma }),
		fF64("method", "accountant-sigma", func(e *Experiment) *float64 { return &e.Method.AccountantSigma }),
		fF64("method", "delta", func(e *Experiment) *float64 { return &e.Method.Delta }),
		fF64("method", "decay-from", func(e *Experiment) *float64 { return &e.Method.DecayFrom }),
		fF64("method", "decay-to", func(e *Experiment) *float64 { return &e.Method.DecayTo }),
		fF64("method", "share", func(e *Experiment) *float64 { return &e.Method.ShareFraction }),
		fF64("method", "compress", func(e *Experiment) *float64 { return &e.Method.Compress }),

		fBool("runtime", "simnet", func(e *Experiment) *bool { return &e.Runtime.Simnet }),
		fDur("runtime", "deadline", func(e *Experiment) *time.Duration { return &e.Runtime.Deadline }),
		fInt("runtime", "quorum", func(e *Experiment) *int { return &e.Runtime.Quorum }),
		fF64("runtime", "dropout", func(e *Experiment) *float64 { return &e.Runtime.Dropout }),

		fStr("faults", "plan", func(e *Experiment) *string { return &e.Faults.Plan }),
		fStr("faults", "population", func(e *Experiment) *string { return &e.Faults.Population }),

		fStr("aggregation", "rule", func(e *Experiment) *string { return &e.Aggregation.Rule }),
		fInt("aggregation", "shards", func(e *Experiment) *int { return &e.Aggregation.Shards }),
		fInt("aggregation", "tree-fanout", func(e *Experiment) *int { return &e.Aggregation.TreeFanout }),
		fStr("aggregation", "sampler", func(e *Experiment) *string { return &e.Aggregation.Sampler }),
		fInt("aggregation", "mux-workers", func(e *Experiment) *int { return &e.Aggregation.MuxWorkers }),

		fStr("codec", "wire", func(e *Experiment) *string { return &e.Codec.Wire }),

		fInt("training", "k", func(e *Experiment) *int { return &e.Training.K }),
		fInt("training", "kt", func(e *Experiment) *int { return &e.Training.Kt }),
		fInt("training", "rounds", func(e *Experiment) *int { return &e.Training.Rounds }),
		fInt("training", "planned-rounds", func(e *Experiment) *int { return &e.Training.PlannedRounds }),
		fInt("training", "batch", func(e *Experiment) *int { return &e.Training.BatchSize }),
		fInt("training", "iters", func(e *Experiment) *int { return &e.Training.LocalIters }),
		fF64("training", "lr", func(e *Experiment) *float64 { return &e.Training.LR }),
		fInt("training", "val-examples", func(e *Experiment) *int { return &e.Training.ValExamples }),
		fInt("training", "eval-every", func(e *Experiment) *int { return &e.Training.EvalEvery }),
		fInt("training", "parallelism", func(e *Experiment) *int { return &e.Training.Parallelism }),

		fStr("experiment", "name", func(e *Experiment) *string { return &e.Experiment.Name }),
		fF64("experiment", "scale", func(e *Experiment) *float64 { return &e.Experiment.Scale }),

		fSeeds("sweep", "seeds", func(e *Experiment) *[]int64 { return &e.Sweep.Seeds }),
	}
}

func fInt(sec, key string, p func(*Experiment) *int) field {
	return field{sec, key,
		func(e *Experiment, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("not an integer: %q", v)
			}
			*p(e) = n
			return nil
		},
		func(e *Experiment) string { return strconv.Itoa(*p(e)) },
	}
}

func fI64(sec, key string, p func(*Experiment) *int64) field {
	return field{sec, key,
		func(e *Experiment, v string) error {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("not an integer: %q", v)
			}
			*p(e) = n
			return nil
		},
		func(e *Experiment) string { return strconv.FormatInt(*p(e), 10) },
	}
}

func fF64(sec, key string, p func(*Experiment) *float64) field {
	return field{sec, key,
		func(e *Experiment, v string) error {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("not a number: %q", v)
			}
			// NaN passes every range check below it (each comparison is
			// false) and ±Inf has no meaning for any float key.
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("not a finite number: %q", v)
			}
			*p(e) = f
			return nil
		},
		// 'g'/-1 is the shortest representation that reparses to the exact
		// same float64, so get∘set is the identity and digests are stable.
		func(e *Experiment) string { return strconv.FormatFloat(*p(e), 'g', -1, 64) },
	}
}

func fStr(sec, key string, p func(*Experiment) *string) field {
	return field{sec, key,
		func(e *Experiment, v string) error {
			s, err := unquote(v)
			if err != nil {
				return err
			}
			*p(e) = s
			return nil
		},
		func(e *Experiment) string { return quoteIfNeeded(*p(e)) },
	}
}

func fBool(sec, key string, p func(*Experiment) *bool) field {
	return field{sec, key,
		func(e *Experiment, v string) error {
			switch v {
			case "true":
				*p(e) = true
			case "false":
				*p(e) = false
			default:
				return fmt.Errorf("not a boolean (true/false): %q", v)
			}
			return nil
		},
		func(e *Experiment) string { return strconv.FormatBool(*p(e)) },
	}
}

func fDur(sec, key string, p func(*Experiment) *time.Duration) field {
	return field{sec, key,
		func(e *Experiment, v string) error {
			d, err := time.ParseDuration(v)
			if err != nil {
				return fmt.Errorf("not a duration: %q", v)
			}
			*p(e) = d
			return nil
		},
		func(e *Experiment) string { return (*p(e)).String() },
	}
}

func fSeeds(sec, key string, p func(*Experiment) *[]int64) field {
	return field{sec, key,
		func(e *Experiment, v string) error {
			if !strings.HasPrefix(v, "[") || !strings.HasSuffix(v, "]") {
				return fmt.Errorf("not a list (want [1, 2, ...]): %q", v)
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
					return fmt.Errorf("element %d not an integer: %q", i, strings.TrimSpace(part))
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

// schemaIndex holds the lookup structures Parse and Set share, built once
// from the table.
type schemaIndex struct {
	fields   []field
	bySec    map[string]map[string]field
	secKeys  map[string][]string
	sections map[string]bool
}

func buildIndex() *schemaIndex {
	idx := &schemaIndex{
		fields:   schema(),
		bySec:    map[string]map[string]field{},
		secKeys:  map[string][]string{},
		sections: map[string]bool{},
	}
	for _, f := range idx.fields {
		if idx.bySec[f.section] == nil {
			idx.bySec[f.section] = map[string]field{}
		}
		idx.bySec[f.section][f.key] = f
		idx.secKeys[f.section] = append(idx.secKeys[f.section], f.key)
		idx.sections[f.section] = true
	}
	return idx
}

var index = buildIndex()

// setKey is the one write path into an Experiment: Parse calls it per
// document line and Set per override, so both refuse the same unknown
// keys and mistyped values, naming the key.
func setKey(e *Experiment, section, key, value string) error {
	if !index.sections[section] {
		return errUnknownSection(section)
	}
	f, ok := index.bySec[section][key]
	if !ok {
		where := "top level"
		if section != "" {
			where = "section " + section
		}
		return fmt.Errorf("unknown key %q in %s (have %s)", key, where, strings.Join(index.secKeys[section], ", "))
	}
	if err := f.set(e, value); err != nil {
		return fmt.Errorf("%s: %w", keyID(section, key), err)
	}
	return nil
}

// keyID is a key's full name as -set and error messages spell it.
func keyID(section, key string) string {
	if section == "" {
		return key
	}
	return section + "." + key
}

func errUnknownSection(name string) error {
	return fmt.Errorf("unknown section %q (have %s)", name, strings.Join(sectionNames(), ", "))
}

// Set assigns one schema key — "section.key", or a bare top-level key such
// as "seed" — exactly as the document line "key: value" would: same type
// check, same refusal of unknown keys by name with the valid ones listed,
// and therefore the same Canonical bytes and Digest as the edited file.
// Unlike a document, which refuses a repeated key, a later Set wins; and an
// empty value is the empty string (-set faults.plan= clears the file's
// plan), where a document must write "" to tell it from a section header.
func Set(e *Experiment, key, value string) error {
	section, name, ok := strings.Cut(key, ".")
	if !ok || section == "" {
		section, name = "", key
	}
	if err := setKey(e, section, name, strings.TrimSpace(value)); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}
