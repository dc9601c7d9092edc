package p

// F type-checks; the test file beside it does not parse.
func F() {}
