package graph

// RecomputeFingerprint hashes g's content, bypassing the memo that
// shared inputs carry.
func RecomputeFingerprint(g *Graph) string { return g.fingerprint() }
