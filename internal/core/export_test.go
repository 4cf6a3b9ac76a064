package core

import (
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
)

// MethodRow is what the method-table test in package core_test, which can
// import internal/config, reads of one row.
type MethodRow struct {
	Name, Label         string
	Guarantee, AtServer bool
}

// MethodRows returns the method table in order.
func MethodRows() []MethodRow {
	rows := make([]MethodRow, len(methods))
	for i, m := range methods {
		rows[i] = MethodRow{m.name, m.label, m.acct != noGuarantee, m.at == serverUpdate}
	}
	return rows
}

// AnnotateEpsilon is annotateEpsilon over a closed world of cfg.K clients.
func AnnotateEpsilon(cfg Config, spec dataset.Spec, hist *fl.History) {
	annotateEpsilon(cfg, spec, hist, fl.PopulationOf(cfg.K, nil))
}
