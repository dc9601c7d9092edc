package lockg

// Tables hands out the unexported types' methods, so the fixture root
// reaches them.
func Tables() []any {
	return []any{(*table).Classify, (*table).Drain, (*table).Ptr, (*table).Must, (*table).Exercise, (*wrap).ResetInner}
}
