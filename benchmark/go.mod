module fedcdp/benchmark

go 1.21

require fedcdp v0.0.0

replace fedcdp => ../
