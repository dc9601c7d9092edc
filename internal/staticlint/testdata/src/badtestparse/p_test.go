package p

func TestF(t *testing.T {
}
