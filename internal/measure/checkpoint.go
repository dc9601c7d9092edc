package measure

import (
	"bytes"
	"fmt"
	"os"
	"sync"

	"gpuport/internal/dataset"
	"gpuport/internal/tracecache"
)

// checkpoint appends completed cells to a file of trace-cache entries
// (tracecache.AppendEntry) as the sweep runs. The first entry holds the
// campaign's fingerprint; each later one holds the rows of one
// completed job as dataset.AppendRecord writes them. Appends from
// worker goroutines are serialised by a mutex; entry order in the file
// is therefore scheduling-dependent, which is fine because resume loads
// it into a keyed index.
type checkpoint struct {
	mu  sync.Mutex
	f   *os.File
	err string
}

// openCheckpoint opens (or creates) the checkpoint at path for the
// campaign with fingerprint campaign and returns the writer plus the
// set of cells already persisted, which the sweep resumes instead of
// re-measuring. runs heads the rows for dataset.ReadCSV.
//
// A process that died mid-append leaves a torn or zero-filled last
// entry, which means "cells not yet persisted": the cells of the
// entries before the first one that fails to verify are loaded, and the
// file is cut back to those entries before appending. A file whose
// first entry verifies but names another campaign is refused before it
// is opened for writing, as is a file no crash leaves; one that is
// empty, all zeros or entry-headed but does not verify starts over.
func openCheckpoint(path, campaign string, runs int) (*checkpoint, *dataset.Dataset, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
	}
	magic := tracecache.HeaderMagic
	if n := min(len(raw), len(magic)); string(raw[:n]) != magic[:n] && len(bytes.Trim(raw, "\x00")) > 0 {
		return nil, nil, fmt.Errorf("measure: checkpoint: %s is not a checkpoint; refusing to overwrite it", path)
	}
	keep := 0
	var resumed *dataset.Dataset
	if head, rest, err := tracecache.CutEntry(raw); err == nil {
		if string(head) != campaign {
			return nil, nil, fmt.Errorf("measure: checkpoint: %s was written by campaign %.16q, this sweep is campaign %.16q",
				path, head, campaign)
		}
		rows := dataset.AppendHeader(nil, runs)
		for {
			job, next, err := tracecache.CutEntry(rest)
			if err != nil {
				break
			}
			rows, rest = append(rows, job...), next
		}
		keep = len(raw) - len(rest)
		if resumed, err = dataset.ReadCSV(bytes.NewReader(rows)); err != nil {
			return nil, nil, fmt.Errorf("measure: checkpoint: %s: %w", path, err)
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
	}
	// Drop what failed to verify so our appends start on an entry
	// boundary; a file without a verified campaign entry starts over
	// with one.
	err = f.Truncate(int64(keep))
	if err == nil && keep == 0 {
		_, err = f.Write(tracecache.AppendEntry(nil, []byte(campaign)))
	}
	if err != nil {
		_ = f.Close() // best-effort: the truncate or write error is the one worth reporting
		return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
	}
	return &checkpoint{f: f}, resumed, nil
}

// appendJob persists the freshly measured cells of one completed job
// as one entry in one write, so a hard kill loses at most the job being
// written. Resumed cells are already in the file and failed cells have
// no data; neither is rewritten. A write error disables further
// checkpointing (the sweep continues; the error surfaces in the
// report).
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
	entry := tracecache.AppendEntry(nil, rows)
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.err != "" {
		return
	}
	if _, err := ck.f.Write(entry); err != nil {
		ck.err = err.Error()
	}
}

// close closes the checkpoint file, returning the first error
// encountered over the checkpoint's lifetime ("" when clean).
func (ck *checkpoint) close() string {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if err := ck.f.Close(); err != nil && ck.err == "" {
		ck.err = err.Error()
	}
	return ck.err
}
