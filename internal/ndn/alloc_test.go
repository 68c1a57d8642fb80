package ndn

import "testing"

// These tests pin the zero-allocation contract of the //ndnlint:hotpath
// annotations on the view parse path: a NameView is fixed-size arrays
// plus one slice header aliasing the caller's buffer, so parsing,
// hashing, and component access must never touch the heap. The bench
// numbers show the win; these make the regression fail `go test`.

func TestParseNameViewZeroAlloc(t *testing.T) {
	wire := EncodeName(nil, MustParseName("/youtube/alice/video-749.avi/137"))
	var hash uint64
	if n := testing.AllocsPerRun(200, func() {
		v, err := ParseNameView(wire)
		if err != nil {
			t.Fatal(err)
		}
		hash ^= v.Hash()
	}); n != 0 {
		t.Errorf("ParseNameView: %.0f allocs/run, want 0", n)
	}
	if hash == 0 {
		t.Fatal("hash unexpectedly zero")
	}
}

func TestInterestNameViewZeroAlloc(t *testing.T) {
	wire := EncodeInterest(NewInterest(MustParseName("/cnn/news/2013may20"), 7))
	if n := testing.AllocsPerRun(200, func() {
		if _, err := InterestNameView(wire); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("InterestNameView: %.0f allocs/run, want 0", n)
	}
}

func TestNameViewAccessZeroAlloc(t *testing.T) {
	name := MustParseName("/a/b/c/d")
	wire := EncodeName(nil, name)
	v, err := ParseNameView(wire)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < v.Len(); i++ {
			total += len(v.Component(i))
		}
		for k := 0; k <= v.Len(); k++ {
			total += int(v.PrefixHash(k) & 1)
		}
		if !v.EqualName(name) {
			t.Fatal("EqualName mismatch")
		}
	}); n != 0 {
		t.Errorf("NameView access: %.0f allocs/run, want 0", n)
	}
	if total == 0 {
		t.Fatal("accessors unexpectedly read nothing")
	}
}

func TestNamePrefixZeroAlloc(t *testing.T) {
	name := MustParseName("/youtube/alice/video-749.avi/137")
	var n int
	if allocs := testing.AllocsPerRun(200, func() {
		for k := 0; k <= name.Len(); k++ {
			n += len(name.Prefix(k).Key())
		}
		p, _ := name.Parent()
		n += p.Len()
	}); allocs != 0 {
		t.Errorf("Name.Prefix/Parent: %.0f allocs/run, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("prefixes unexpectedly empty")
	}
}
