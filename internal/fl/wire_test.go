package fl

import (
	"math"
	"strings"
	"testing"

	"fedcdp/internal/tensor"
)

func TestWireValidation(t *testing.T) {
	valid := func() UpdateMsg {
		m := UpdateMsg{ClientID: 1, Round: 0, Weight: 3}
		m.Delta = WireFromTensors([]*tensor.Tensor{tensor.FromSlice([]float64{1, 2}, 2)})
		return m
	}
	if m := valid(); m.Validate() != nil {
		t.Fatalf("valid message rejected: %v", m.Validate())
	}

	cases := []struct {
		name   string
		mutate func(*UpdateMsg)
		want   string
	}{
		{"negative round", func(m *UpdateMsg) { m.Round = -1 }, "negative update round"},
		{"negative client", func(m *UpdateMsg) { m.ClientID = -2 }, "negative client id"},
		{"nan weight", func(m *UpdateMsg) { m.Weight = math.NaN() }, "invalid update weight"},
		{"inf weight", func(m *UpdateMsg) { m.Weight = math.Inf(1) }, "invalid update weight"},
		{"negative weight", func(m *UpdateMsg) { m.Weight = -1 }, "invalid update weight"},
		{"no payload", func(m *UpdateMsg) { m.Delta = nil }, "no payload"},
		{"both payloads", func(m *UpdateMsg) {
			m.Sparse = []SparseTensorWire{{Shape: []int{1}, Indices: []int32{0}, Values: []float64{1}}}
		}, "mixes payload encodings"},
		{"shape/data mismatch", func(m *UpdateMsg) { m.Delta[0].Shape = []int{3} }, "does not match shape"},
		{"negative dim", func(m *UpdateMsg) { m.Delta[0].Shape = []int{-2, -1} }, "negative wire dimension"},
		{"overflowing shape", func(m *UpdateMsg) { m.Delta[0].Shape = []int{1 << 20, 1 << 20, 1 << 20} }, "exceeds"},
		{"excessive rank", func(m *UpdateMsg) { m.Delta[0].Shape = make([]int, 40) }, "rank"},
		{"nan value", func(m *UpdateMsg) { m.Delta[0].Data[1] = math.NaN() }, "non-finite"},
		{"inf value", func(m *UpdateMsg) { m.Delta[0].Data[0] = math.Inf(-1) }, "non-finite"},
	}
	for _, tc := range cases {
		m := valid()
		tc.mutate(&m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: hostile message validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, derr := m.DecodeTensors(); derr == nil {
			t.Errorf("%s: DecodeTensors accepted a hostile message", tc.name)
		}
	}
}

func TestSparseWireValidation(t *testing.T) {
	valid := SparseTensorWire{Shape: []int{4}, Indices: []int32{1, 3}, Values: []float64{5, -5}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid sparse rejected: %v", err)
	}
	cases := []struct {
		name string
		w    SparseTensorWire
	}{
		{"index out of range", SparseTensorWire{Shape: []int{4}, Indices: []int32{4}, Values: []float64{1}}},
		{"negative index", SparseTensorWire{Shape: []int{4}, Indices: []int32{-1}, Values: []float64{1}}},
		{"misaligned slices", SparseTensorWire{Shape: []int{4}, Indices: []int32{0, 1}, Values: []float64{1}}},
		{"too many entries", SparseTensorWire{Shape: []int{1}, Indices: []int32{0, 0}, Values: []float64{1, 2}}},
		{"nan value", SparseTensorWire{Shape: []int{2}, Indices: []int32{0}, Values: []float64{math.NaN()}}},
		{"negative dim", SparseTensorWire{Shape: []int{-4}}},
	}
	for _, tc := range cases {
		if tc.w.Validate() == nil {
			t.Errorf("%s: hostile sparse wire validated", tc.name)
		}
	}
}

func TestParamMsgValidation(t *testing.T) {
	valid := func() ParamMsg {
		return ParamMsg{
			Round:  0,
			Params: WireFromTensors([]*tensor.Tensor{tensor.FromSlice([]float64{1}, 1)}),
			Cfg:    RoundConfig{BatchSize: 4, LocalIters: 5, LR: 0.1},
		}
	}
	if m := valid(); m.Validate() != nil {
		t.Fatalf("valid announcement rejected: %v", m.Validate())
	}
	if err := (&ParamMsg{Denied: true}).Validate(); err != nil {
		t.Fatalf("denial must always validate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ParamMsg)
	}{
		{"zero batch", func(m *ParamMsg) { m.Cfg.BatchSize = 0 }},
		{"absurd iters", func(m *ParamMsg) { m.Cfg.LocalIters = 1 << 30 }},
		{"nan lr", func(m *ParamMsg) { m.Cfg.LR = math.NaN() }},
		{"negative lr", func(m *ParamMsg) { m.Cfg.LR = -1 }},
		{"no params", func(m *ParamMsg) { m.Params = nil }},
		{"bad param tensor", func(m *ParamMsg) { m.Params[0].Data[0] = math.Inf(1) }},
		{"negative round", func(m *ParamMsg) { m.Round = -3 }},
		{"bad scenario", func(m *ParamMsg) { m.Cfg.Scenario.Name = "no-such-scenario" }},
	}
	for _, tc := range cases {
		m := valid()
		tc.mutate(&m)
		if m.Validate() == nil {
			t.Errorf("%s: hostile announcement validated", tc.name)
		}
	}
}
