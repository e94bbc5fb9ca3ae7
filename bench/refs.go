package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"hybriddelay/internal/session"
)

// References for paper-size runs, committed with the benchmark:
// refs.json holds the SHA-256 of the canonical fig7 result and the
// canonical rca16 result per seed; fig7_seed1.csv is the output of
// `hybridlab fig7 -csv -reps 3 -seed 1`.
var (
	//go:embed testdata/refs.json
	refsJSON []byte
	//go:embed testdata/fig7_seed1.csv
	fig7Seed1CSV string
)

type refFile struct {
	Fig7Digest map[string]string          `json:"fig7_digest"`
	RCA16      map[string]*session.Result `json:"rca16"`
}

// loadReferences installs the committed references.
func (e *env) loadReferences() error {
	var rf refFile
	if err := json.Unmarshal(refsJSON, &rf); err != nil {
		return fmt.Errorf("references: %w", err)
	}
	e.fig7Digest = map[int64]string{}
	e.rca16Ref = map[int64]*session.Result{}
	e.fig7CSV = map[int64]string{1: fig7Seed1CSV}
	for _, k := range sortedKeys(rf.Fig7Digest) {
		s, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			return fmt.Errorf("references: seed %q: %w", k, err)
		}
		e.fig7Digest[s] = rf.Fig7Digest[k]
	}
	for _, k := range sortedKeys(rf.RCA16) {
		s, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			return fmt.Errorf("references: seed %q: %w", k, err)
		}
		e.rca16Ref[s] = rf.RCA16[k]
	}
	return nil
}
