package lexer

import (
	"strings"
	"testing"

	"hsmcc/internal/cc/token"
)

// operatorLine uses every operator the lexer knows, plus identifiers and
// numbers, whose token texts are substrings of the source.
const operatorLine = "a->b += c[i] << 2 >= d && !e || f != g; h++; j--; " +
	"k -= (l * m) % n ^ ~o ? p : q; r *= s / t; u /= 1.5; v %= 3; w &= x | y; " +
	"z |= a & b; c ^= d >> 1; e <<= 2; f >>= 3; g = h == i, j <= k, l < m > n; " +
	"o.p = q; r(...) {}\n"

// TestTokenizeAllocatesOnlyTokenSlice: scanning operators, identifiers
// and numbers allocates nothing; Tokenize's allocations are exactly the
// growth steps of the token slice it returns.
func TestTokenizeAllocatesOnlyTokenSlice(t *testing.T) {
	toks, err := Tokenize(operatorLine)
	if err != nil {
		t.Fatal(err)
	}
	var grown []token.Token
	want := 0
	for range toks {
		if len(grown) == cap(grown) {
			want++
		}
		grown = append(grown, token.Token{})
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := Tokenize(operatorLine); err != nil {
			t.Fatal(err)
		}
	})
	if int(got) != want {
		t.Errorf("Tokenize allocated %v times for %d tokens, want %d (token slice growth only)", got, len(toks), want)
	}
}

// BenchmarkTokenize lexes a kernel-sized source of declarations, loops
// and operator-dense statements.
func BenchmarkTokenize(b *testing.B) {
	src := strings.Repeat("int f(int *a, double x) {\n"+
		"\tfor (int i = 0; i < 64; i++) { a[i] = a[i-1] * 2 + (int)x; }\n"+
		"\tif (a[0] >= 0 && x != 0.5) return a[1] % 7;\n"+
		"\t"+operatorLine+"}\n", 20)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Tokenize(src); err != nil {
			b.Fatal(err)
		}
	}
}
