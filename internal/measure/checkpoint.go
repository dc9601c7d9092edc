package measure

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"gpuport/internal/dataset"
)

// checkpoint appends completed cells to a CSV shard file as the sweep
// runs. Header and rows are written by dataset.AppendHeader and
// dataset.AppendRecord, as Dataset.WriteCSV writes them, so a finished
// checkpoint doubles as a saved dataset. Appends from worker
// goroutines are serialised by a mutex; row order in the file is
// therefore scheduling-dependent, which is fine because resume loads it
// into a keyed index.
type checkpoint struct {
	mu  sync.Mutex
	f   *os.File
	err string
}

// openCheckpoint opens (or creates) the shard file at path and returns
// the writer plus the set of cells already persisted, which the sweep
// resumes instead of re-measuring.
//
// Loading is deliberately lenient where dataset.ReadCSV is strict: a
// process that died mid-append can leave a torn last row, which means
// "cells not yet persisted", not a fatal error. A torn row can still
// parse (a sample cut short is another number), so only the
// newline-terminated rows are loaded, and the file is cut back to them
// before appending. Malformed complete rows are skipped. A complete
// first line must be the header of a sweep with this many runs: cell
// keys do not carry the run count, so a checkpoint written with
// another one is refused before the file is opened for writing.
func openCheckpoint(path string, runs int) (*checkpoint, *dataset.Dataset, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
	}
	raw = raw[:bytes.LastIndexByte(raw, '\n')+1]
	if len(raw) > 0 && !bytes.HasPrefix(raw, dataset.AppendHeader(nil, runs)) {
		head, _, _ := bytes.Cut(raw, []byte{'\n'})
		return nil, nil, fmt.Errorf("measure: checkpoint: %s was written with %d runs per cell, this sweep takes %d (header %q)",
			path, bytes.Count(head, []byte(",run")), runs, head)
	}
	resumed := loadCheckpointRows(raw)

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
	}
	// Drop a torn tail so our appends start on a row boundary; a file
	// without one complete line starts over with the header.
	err = f.Truncate(int64(len(raw)))
	if err == nil && len(raw) == 0 {
		_, err = f.Write(dataset.AppendHeader(nil, runs))
	}
	if err != nil {
		_ = f.Close() // best-effort: the truncate or write error is the one worth reporting
		return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
	}
	return &checkpoint{f: f}, resumed, nil
}

// loadCheckpointRows parses shard rows leniently: any row that is not a
// complete, valid dataset record is skipped.
func loadCheckpointRows(raw []byte) *dataset.Dataset {
	cr := csv.NewReader(strings.NewReader(string(raw)))
	cr.FieldsPerRecord = -1
	cr.LazyQuotes = true
	d := dataset.New()
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			continue
		}
		// The header row fails to parse like any damaged row.
		if rec, err := dataset.ParseRecord(row); err == nil {
			d.Add(rec)
		}
	}
	if d.Len() == 0 {
		return nil
	}
	return d
}

// appendJob persists the freshly measured cells of one completed job
// in one write, so a hard kill loses at most the job being written.
// Resumed cells are already in the file and failed cells have no data;
// neither is rewritten. A write error disables further checkpointing
// (the sweep continues; the error surfaces in the report).
func (ck *checkpoint) appendJob(records []dataset.Record, states []cellState) {
	var rows []byte
	for k := range records {
		if states[k].measured && !states[k].resumed {
			rows = dataset.AppendRecord(rows, records[k])
		}
	}
	if len(rows) == 0 {
		return
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.err != "" {
		return
	}
	if _, err := ck.f.Write(rows); err != nil {
		ck.err = err.Error()
	}
}

// close closes the shard file, returning the first error encountered
// over the checkpoint's lifetime ("" when clean).
func (ck *checkpoint) close() string {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if err := ck.f.Close(); err != nil && ck.err == "" {
		ck.err = err.Error()
	}
	return ck.err
}
