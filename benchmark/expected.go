package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// expected.json holds, for expectedSeed, what the program's outputs must
// be. It was generated once by -write-expected and is committed; a later
// change that alters an output has to say so by regenerating it.
//
//go:embed expected.json
var expectedJSON []byte

// expectedPath is where -write-expected writes, relative to the root of
// the checkout (where the command runs).
var expectedPath = filepath.Join("benchmark", "expected.json")

type expectedFile struct {
	Seed int64 `json:"seed"`
	// Exec maps an exec_fresh cell ("lenet/fp16/b16") to the sha256 of
	// its first output.
	Exec map[string]string `json:"exec_fresh"`
	// Tune maps "predictive", "empirical" and "install" to the sha256 of
	// the marshalled curve every cold pass must produce.
	Tune map[string]string `json:"tune_cached"`
	// Serve maps a served model to the argmax of every body under every
	// curve index: Serve[model][body][index].
	Serve map[string][][]int `json:"serve"`
}

func loadExpected() (*expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// updateExpected rewrites one section of the expected.json on disk (the
// embedded copy is as old as the build).
func updateExpected(edit func(*expectedFile)) error {
	raw, err := os.ReadFile(expectedPath)
	if err != nil {
		return err
	}
	var e expectedFile
	if err := json.Unmarshal(raw, &e); err != nil {
		return fmt.Errorf("%s: %w", expectedPath, err)
	}
	e.Seed = expectedSeed
	edit(&e)
	return writeJSON(expectedPath, e)
}
