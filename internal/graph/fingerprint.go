package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// fingerprintVersion is baked into every fingerprint so that a change
// to the hashing scheme itself invalidates all previously computed
// fingerprints (and with them every cached trace keyed by one).
// Version 2 switched the CSR arrays from 8-byte words to their natural
// 4-byte encoding when chunked hashing was introduced.
const fingerprintVersion = 2

// Fingerprint returns a stable content hash of the graph: name, class,
// and the full CSR structure including edge weights. Two graphs share a
// fingerprint exactly when every field an application can observe is
// identical, so a fingerprint is a sound cache key for anything derived
// purely from the graph (execution traces in particular).
//
// The encoding is frozen: little-endian field values behind a version
// tag, with explicit length prefixes so that (RowPtr, Dst) boundary
// shifts cannot collide. Changing the scheme requires bumping
// fingerprintVersion.
//
// The process-shared inputs (InputByName) are hashed once, when they
// are generated, and return that memo; every other graph is hashed on
// each call.
func (g *Graph) Fingerprint() string {
	if g.fp != "" {
		return g.fp
	}
	return g.fingerprint()
}

// fingerprint hashes the graph's content; see Fingerprint.
func (g *Graph) fingerprint() string {
	h := sha256.New()
	// Values are staged in a chunk buffer: hashing the CSR arrays in
	// 32 KiB blocks instead of one Write per value keeps fingerprinting
	// well under a millisecond even for the largest standard inputs
	// (it sits on the trace cache's hot path, paid once per input per
	// campaign).
	buf := make([]byte, 0, 32<<10)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	word := func(v uint64) {
		if len(buf)+8 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	val := func(v int32) {
		if len(buf)+4 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	word(fingerprintVersion)
	word(uint64(len(g.Name)))
	flush()
	h.Write([]byte(g.Name))
	word(uint64(g.Class))
	word(uint64(len(g.RowPtr)))
	for _, v := range g.RowPtr {
		val(v)
	}
	word(uint64(len(g.Dst)))
	for _, v := range g.Dst {
		val(v)
	}
	word(uint64(len(g.Weight)))
	for _, v := range g.Weight {
		val(v)
	}
	flush()
	sum := h.Sum(nil)
	// 128 bits is ample for a cache key; the gfp1 prefix names the
	// scheme version in the cache directory listing.
	return fmt.Sprintf("gfp%d-%x", fingerprintVersion, sum[:16])
}
