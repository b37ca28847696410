package textproc

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize drives the tokenizer with arbitrary (possibly invalid)
// UTF-8. Tokenize feeds every downstream consumer — keyword matching,
// n-gram candidates, feature hashing — so it must never panic and its
// output contract must hold for any input: non-empty lowercase tokens
// with no separators, stable under re-tokenization (the canonicalization
// keyword LFs rely on: NormalizePhrase of a phrase already canonical is
// the identity).
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"Hello, World!",
		"don't stop",
		"A-B testing 123",
		"it's 'quoted'",
		"end'",
		"Café au lait — très bon",
		"CHECK OUT my channel!!! http://spam.example/x?y=1",
		"樹木 trees 🌲 mixed",
		"  \t\r\n  ",
		"o''o", "'", "a'9", "İstanbul",
		"0ϓ", // U+03D3: uppercase letter with no lowercase mapping
		string([]byte{0xff, 0xfe, 'a', 'b'}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tokens := Tokenize(text)
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
			for _, r := range tok {
				// Not IsUpper: some uppercase letters (e.g. U+03D3) have no
				// lowercase mapping. The contract is that lowercasing is a
				// fixed point, so repeated tokenization cannot diverge.
				if unicode.ToLower(r) != r {
					t.Fatalf("token %q not lowercased", tok)
				}
				if unicode.IsSpace(r) {
					t.Fatalf("token %q contains a separator", tok)
				}
			}
			if strings.HasPrefix(tok, "'") || strings.HasSuffix(tok, "'") {
				t.Fatalf("token %q has a dangling apostrophe", tok)
			}
		}

		// Canonical form is a fixed point: re-tokenizing the joined tokens
		// reproduces them exactly.
		again := Tokenize(JoinTokens(tokens))
		if len(again) != len(tokens) {
			t.Fatalf("re-tokenize: %d tokens became %d (%q -> %q)", len(tokens), len(again), tokens, again)
		}
		for i := range tokens {
			if tokens[i] != again[i] {
				t.Fatalf("re-tokenize changed token %d: %q -> %q", i, tokens[i], again[i])
			}
		}

		// NormalizePhrase agrees with Tokenize on emptiness and length.
		phrase, n := NormalizePhrase(text)
		if n != len(tokens) {
			t.Fatalf("NormalizePhrase n=%d, Tokenize produced %d", n, len(tokens))
		}
		if (phrase == "") != (len(tokens) == 0) {
			t.Fatalf("NormalizePhrase %q vs %d tokens", phrase, len(tokens))
		}
	})
}

// FuzzTransform drives the featurizer with arbitrary token lists (the
// input split on NUL, so tokens may be empty, repeated or invalid UTF-8).
// A narrow 16-bucket featurizer makes signed collisions and cancelled
// buckets common. Transform must never panic, its rows must satisfy the
// sparse-vector invariants, and both Transform and TransformAll must
// match the map-accumulating reference bit for bit.
func FuzzTransform(f *testing.F) {
	for _, seed := range []string{
		"",
		"a",
		"a\x00a\x00a",
		"spam\x00free\x00spam\x00\x00ham",
		"\xff\xfe\x00café\x00樹木",
		strings.Repeat("x\x00y\x00", 40),
	} {
		f.Add(seed)
	}
	feat := NewFeaturizer(16)
	if err := feat.Fit([][]string{{"a", "b"}, {"spam", "free"}, {"ham"}}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		tokens := strings.Split(raw, "\x00")
		want := referenceTransform(feat, tokens)
		got := feat.Transform(tokens)
		if err := got.Validate(feat.Dim); err != nil {
			t.Fatalf("Transform(%q): %v", tokens, err)
		}
		if !sameBits(got, want) {
			t.Fatalf("Transform(%q) = %+v, reference %+v", tokens, got, want)
		}
		rows := feat.TransformAll([][]string{tokens[:len(tokens)/2], tokens})
		if !sameBits(rows[1], want) {
			t.Fatalf("TransformAll(%q) = %+v, reference %+v", tokens, rows[1], want)
		}
	})
}
