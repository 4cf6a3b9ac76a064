// Package fltest is test support for the packages that put an fl.RoundServer
// behind a real listener (internal/core, cmd/fedserve): peers that misbehave
// on the gob wire, so "a failed session costs its slot, not the run" is
// checked against the same strangers everywhere.
package fltest
