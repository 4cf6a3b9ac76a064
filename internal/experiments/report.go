package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Report is a formatted experiment result: a titled table plus notes.
// Scenario names the data-heterogeneity scenario the experiment ran under
// ("" for the default Table I partition) and is set centrally by Run.
type Report struct {
	Name     string // experiment id, e.g. "table2"
	Title    string
	Scenario string
	// ConfigDigest names the experiment the report was produced from (see
	// internal/config); Run stamps it.
	ConfigDigest string
	Header       []string
	Rows         [][]string
	Notes        []string
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s ===\n", r.Name, r.Title)
	if r.Scenario != "" {
		fmt.Fprintf(w, "scenario: %s\n", r.Scenario)
	}
	if r.ConfigDigest != "" {
		fmt.Fprintf(w, "config: %s\n", r.ConfigDigest)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the report to a string.
func (r *Report) String() string {
	var b strings.Builder
	r.Fprint(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f3ok/f1ok render History's (value, ok) metrics: a run that never
// evaluated (or never committed a client) prints "-" instead of a
// fabricated 0 — the sentinel-zero conflation these accessors fixed.
func f3ok(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return f3(v)
}

func f1ok(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return f1(v)
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}
