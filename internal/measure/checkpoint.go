package measure

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"gpuport/internal/dataset"
)

// checkpoint appends completed cells to a CSV shard file as the sweep
// runs. Header and rows are written by dataset.Header and
// dataset.FormatRecord, as Dataset.WriteCSV writes them, so a finished
// checkpoint doubles as a saved dataset. Appends from worker
// goroutines are serialised by a mutex; row order in the file is
// therefore scheduling-dependent, which is fine because resume loads it
// into a keyed index.
type checkpoint struct {
	mu  sync.Mutex
	f   *os.File
	cw  *csv.Writer
	err string
}

// openCheckpoint opens (or creates) the shard file at path and returns
// the writer plus the set of cells already persisted, which the sweep
// resumes instead of re-measuring.
//
// Loading is deliberately lenient where dataset.ReadCSV is strict: a
// checkpoint written by a process that died mid-append can end in a
// truncated row, and a self-healing harness must treat that as "one
// cell not yet persisted", not as a fatal error. Malformed rows are
// skipped; if the file does not end in a newline, one is inserted so
// appended rows stay parseable.
func openCheckpoint(path string, runs int) (*checkpoint, *dataset.Dataset, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
	}
	var resumed *dataset.Dataset
	if len(raw) > 0 {
		resumed = loadCheckpointRows(raw)
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
	}
	ck := &checkpoint{f: f, cw: csv.NewWriter(f)}
	if len(raw) == 0 {
		if err := ck.cw.Write(dataset.Header(runs)); err != nil {
			_ = f.Close() // best-effort: the write error is the one worth reporting
			return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
		}
		ck.cw.Flush()
	} else if raw[len(raw)-1] != '\n' {
		// Heal a truncated final line so our appends start clean.
		if _, err := f.Write([]byte("\n")); err != nil {
			_ = f.Close() // best-effort: the write error is the one worth reporting
			return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
		}
	}
	if err := ck.cw.Error(); err != nil {
		_ = f.Close() // best-effort: the Flush error is the one worth reporting
		return nil, nil, fmt.Errorf("measure: checkpoint: %w", err)
	}
	return ck, resumed, nil
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
// and flushes them, so a hard kill loses at most the job being written.
// Resumed cells are already in the file and failed cells have no data;
// neither is rewritten. A write error disables further checkpointing
// (the sweep continues; the error surfaces in the report).
func (ck *checkpoint) appendJob(records []dataset.Record, states []cellState) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.err != "" {
		return
	}
	for k := range records {
		if !states[k].measured || states[k].resumed {
			continue
		}
		if err := ck.cw.Write(dataset.FormatRecord(records[k])); err != nil {
			ck.err = err.Error()
			return
		}
	}
	ck.cw.Flush()
	if err := ck.cw.Error(); err != nil {
		ck.err = err.Error()
	}
}

// close flushes and closes the shard file, returning the first error
// encountered over the checkpoint's lifetime ("" when clean).
func (ck *checkpoint) close() string {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.cw.Flush()
	if err := ck.cw.Error(); err != nil && ck.err == "" {
		ck.err = err.Error()
	}
	if err := ck.f.Close(); err != nil && ck.err == "" {
		ck.err = err.Error()
	}
	return ck.err
}
