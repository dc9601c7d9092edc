// Package tracecache is a content-addressed on-disk store for
// application execution traces. Tracing is the dominant wall-clock cost
// of a measurement campaign and a trace depends only on (application,
// input), so repeated campaigns - the common development loop - can
// skip execution entirely when an identical trace was already recorded.
//
// A trace is keyed by (app, appVersion, graph fingerprint, validate
// flag): the graph fingerprint covers everything an application can
// observe of its input (internal/graph.Fingerprint), the app version
// token covers the implementation (internal/apps.App.Version), and the
// validate flag is included because a validated run proves more than an
// unvalidated one (a cached unvalidated trace must never satisfy a
// -validate campaign). Any change to the fingerprint scheme, an app, or
// the store format itself therefore invalidates exactly the affected
// entries.
//
// Entries are self-verifying: a one-line header carries the store
// format version, the payload length and a SHA-256 checksum, followed
// by the trace's canonical compact JSON. Readers treat any mismatch -
// truncation, corruption, or a stale format version - as a miss and
// delete the bad file; the pipeline then re-traces, so a damaged cache
// can degrade performance but never correctness. Writes go through a
// temp file and an atomic rename, making the store safe for concurrent
// readers and writers (including across processes). Total size is
// capped: after each write the least-recently-used entries are evicted
// until the store fits the budget.
//
// AppendEntry and CutEntry export the entry codec for any payload, and
// WriteEntry and ReadEntry store a file of one entry. The campaign
// server stores each finished job as one such file, and a sweep
// checkpoint (internal/measure) is a sequence of entries, so every
// store of resumable state has one verified on-disk format.
package tracecache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpuport/internal/irgl"
	"gpuport/internal/obs"
)

// formatVersion is written into every entry header. Bump it whenever
// the entry encoding changes; readers treat older versions as misses.
const formatVersion = 1

// HeaderMagic opens the header line of every entry.
const HeaderMagic = "gpuport-tracecache"

// DefaultMaxBytes caps the store at 256 MiB unless Open is told
// otherwise - roughly four orders of magnitude above a full standard
// campaign, so eviction only matters for long-lived shared caches.
const DefaultMaxBytes = 256 << 20

// entryExt suffixes every entry file; eviction only ever touches files
// with this extension.
const entryExt = ".trace"

// Key identifies one cached trace.
type Key struct {
	// App and AppVersion name the application implementation
	// (apps.App.Name, apps.App.Version).
	App        string
	AppVersion string
	// GraphFP is the input's content fingerprint (graph.Fingerprint).
	GraphFP string
	// Validated records whether the trace was produced under output
	// validation.
	Validated bool
}

// id returns the entry's content address: a hash of every key field
// behind a scheme version, so no field boundary ambiguity can alias
// two keys.
func (k Key) id() string {
	h := sha256.New()
	fmt.Fprintf(h, "k%d|%d|%s|%d|%s|%d|%s|%v",
		formatVersion, len(k.App), k.App, len(k.AppVersion), k.AppVersion, len(k.GraphFP), k.GraphFP, k.Validated)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// Store is an open trace cache. Safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	// rec, when set, receives store-level events the pipeline cannot
	// see from its own Get/Put counters: LRU evictions and healed
	// (deleted-because-damaged) entries.
	rec *obs.Recorder

	// mu serialises evict's directory scans.
	mu sync.Mutex
}

// Open opens (creating if necessary) the store rooted at dir. maxBytes
// caps the total size of cached entries; <= 0 means DefaultMaxBytes.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("tracecache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{dir: dir, maxBytes: maxBytes}, nil
}

// SetObs attaches an observability recorder. The store then counts
// evictions and healed entries (obs.CtrCacheEvictions,
// obs.CtrCacheCorrupt) and, when tracing is enabled, emits one event
// per occurrence naming the entry file. Deliberately distinct from the
// pipeline-level hit/miss counters so nothing is double counted. Call
// before concurrent use begins.
func (s *Store) SetObs(rec *obs.Recorder) *Store {
	s.rec = rec
	return s
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.id()+entryExt)
}

// Get returns the cached trace for k, or (nil, false) on a miss. A
// verifiably damaged entry is deleted and reported as a miss; Get never
// fails: any problem at all falls back to "not cached".
func (s *Store) Get(k Key) (*irgl.Trace, bool) {
	path := s.path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	tr, err := decodeEntry(raw)
	if err != nil {
		_ = os.Remove(path) // best-effort heal; a stuck entry re-misses next time
		s.rec.Add(obs.CtrCacheCorrupt, 1)
		s.rec.Event(obs.EvCacheHeal, 0, obs.String(obs.AttrPath, filepath.Base(path)))
		return nil, false
	}
	// Touch the entry so LRU eviction sees the access. Best-effort: a
	// failed touch only skews eviction order.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return tr, true
}

// Put stores tr under k, then enforces the size cap. Errors are
// returned for observability but callers are expected to treat them as
// non-fatal - a trace that fails to cache is simply re-traced next run.
func (s *Store) Put(k Key, tr *irgl.Trace) error {
	path := s.path(k)
	if err := WriteEntry(path, tr.AppendJSONCompact(nil)); err != nil {
		return err
	}
	return s.evict(path)
}

// ErrCorrupt marks an entry that was read but failed verification:
// truncated, bit-flipped, a stale format version, or not an entry at
// all.
var ErrCorrupt = errors.New("tracecache: corrupt entry")

// AppendEntry appends payload to dst as one self-verifying entry: a
// header line carrying the format version, the payload's SHA-256 and
// its length, then the payload. Entries concatenate: CutEntry takes
// them apart again one at a time.
func AppendEntry(dst, payload []byte) []byte {
	return append(appendHeader(dst, payload), payload...)
}

// CutEntry verifies the entry at the start of raw and returns its
// payload and the bytes after it. The header must be exactly the one
// AppendEntry writes for that payload, so a verified entry re-encodes
// to the bytes it was cut from. An entry that fails verification
// returns an error wrapping ErrCorrupt.
func CutEntry(raw []byte) (payload, rest []byte, err error) {
	line, body, ok := bytes.Cut(raw, []byte{'\n'})
	if !ok {
		return nil, nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	fields := strings.Fields(string(line))
	if len(fields) != 4 || fields[0] != HeaderMagic {
		return nil, nil, fmt.Errorf("%w: malformed header", ErrCorrupt)
	}
	if fields[1] != strconv.Itoa(formatVersion) {
		return nil, nil, fmt.Errorf("%w: stale format version %q", ErrCorrupt, fields[1])
	}
	n, err := strconv.Atoi(fields[3])
	if err != nil || n < 0 {
		return nil, nil, fmt.Errorf("%w: malformed length", ErrCorrupt)
	}
	if len(body) < n {
		return nil, nil, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrCorrupt, len(body), n)
	}
	payload = body[:n:n]
	if !bytes.Equal(appendHeader(nil, payload), raw[:len(line)+1]) {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, body[n:], nil
}

// appendHeader appends the entry header for payload to dst.
func appendHeader(dst, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return fmt.Appendf(dst, "%s %d %x %d\n", HeaderMagic, formatVersion, sum, len(payload))
}

// verifyEntry returns the payload of an entry file, which must hold
// exactly one entry.
func verifyEntry(raw []byte) ([]byte, error) {
	payload, rest, err := CutEntry(raw)
	if err == nil && len(rest) > 0 {
		return nil, fmt.Errorf("%w: %d bytes after the payload", ErrCorrupt, len(rest))
	}
	return payload, err
}

// WriteEntry writes payload to path as a file of one entry. The bytes
// go to a temp file in path's directory that is then renamed into
// place, so concurrent readers (and other processes) never observe a
// partial entry.
func WriteEntry(path string, payload []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	_, werr := tmp.Write(AppendEntry(nil, payload))
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the write error takes precedence
		return fmt.Errorf("tracecache: write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the write error takes precedence
		return fmt.Errorf("tracecache: %w", err)
	}
	return nil
}

// ReadEntry reads the entry file at path and returns its verified
// payload. A file that cannot be read returns the os error unchanged
// (a missing one satisfies errors.Is(err, fs.ErrNotExist)); a file that
// fails verification returns an error wrapping ErrCorrupt.
func ReadEntry(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return verifyEntry(raw)
}

// decodeEntry is Get's verify-and-decode step over an in-memory entry
// file: the FuzzEntryDecode target and a determinism root of the codec.
func decodeEntry(raw []byte) (*irgl.Trace, error) {
	payload, err := verifyEntry(raw)
	if err != nil {
		return nil, err
	}
	return irgl.ReadTraceJSON(payload)
}

// evict removes least-recently-used entries until the store fits
// maxBytes. The entry at keep (the one just written) is evicted last so
// a single oversized put still leaves the new trace readable.
func (s *Store) evict(keep string) error {
	// Serialise evictions: concurrent writers racing the scan would
	// double-count and over-evict.
	s.mu.Lock()
	defer s.mu.Unlock()
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []entry
	var total int64
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("tracecache: evict: %w", err)
	}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), entryExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent eviction
		}
		entries = append(entries, entry{filepath.Join(s.dir, de.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= s.maxBytes {
		return nil
	}
	sort.Slice(entries, func(i, j int) bool {
		ei, ej := entries[i], entries[j]
		if (ei.path == keep) != (ej.path == keep) {
			return ej.path == keep // keep sorts last
		}
		if !ei.mtime.Equal(ej.mtime) {
			return ei.mtime.Before(ej.mtime)
		}
		return ei.path < ej.path // tie-break for stable tests
	})
	for _, e := range entries {
		if total <= s.maxBytes || e.path == keep {
			break
		}
		if err := os.Remove(e.path); err != nil {
			continue
		}
		total -= e.size
		s.rec.Add(obs.CtrCacheEvictions, 1)
		s.rec.Event(obs.EvCacheEvict, 0, obs.String(obs.AttrPath, filepath.Base(e.path)))
	}
	return nil
}
