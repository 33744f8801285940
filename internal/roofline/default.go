package roofline

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// defaultFile is the checked-in default table: the probe archive
// `spmvbench -roofprobe -threads 1,2` wrote on a 2-vCPU x86-64 VM
// (Go 1.24, linux/amd64), bandwidth ceilings and fitted kernel costs.
// Callers with no probe archive of their own — the server's
// format=auto ingest, the library's analytic tuning — predict with it,
// so their choices are deterministic and need no timing on the
// request path.
//
//go:embed ROOF_vm.json
var defaultFile []byte

var defaultModel = mustParseDefault(defaultFile)

// mustParseDefault builds the default model from the embedded archive,
// labelled SourceDefault. The archive is part of the source, so a
// file that does not parse, or carries no costs, is a build defect.
func mustParseDefault(data []byte) *Model {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		panic(fmt.Errorf("roofline: default table: %w", err))
	}
	m, err := FromFile(&f)
	if err != nil {
		panic(fmt.Errorf("roofline: default table: %w", err))
	}
	if len(m.Costs) == 0 {
		panic(fmt.Errorf("roofline: default table carries no costs"))
	}
	m.Source = SourceDefault
	return m
}

// Default returns the default model: the embedded table's ceilings and
// costs, labelled SourceDefault. Like every Model it is shared and
// immutable.
func Default() *Model { return defaultModel }
