package origin

import (
	"crypto/md5"
	"encoding/hex"
	"testing"
)

// TestBodyDigestsPinned pins the generator's bytes: MD5 digests recorded
// from the byte-at-a-time implementation, across block-boundary sizes (0, 1,
// 7, 8, 9), an odd size with a tail, and two large bodies, for three
// versions. Tests, the benchmark's body verifier and warm caches all rely on
// Body never changing its output.
func TestBodyDigestsPinned(t *testing.T) {
	o := New(7)
	for _, c := range []struct {
		path          string
		version, size int64
		md5           string
	}{
		{"/docs/a", 0, 0, "d41d8cd98f00b204e9800998ecf8427e"},
		{"/docs/a", 1, 0, "d41d8cd98f00b204e9800998ecf8427e"},
		{"/docs/a", 2, 0, "d41d8cd98f00b204e9800998ecf8427e"},
		{"/docs/a", 0, 1, "7e6a2afe551e067a75fafacf47a6d981"},
		{"/docs/a", 1, 1, "01abfc750a0c942167651c40d088531d"},
		{"/docs/a", 2, 1, "9da8aa9f77119c9219b103922a74e91c"},
		{"/docs/a", 0, 7, "2aaf5cb44edb743b3de9188e5f53112a"},
		{"/docs/a", 1, 7, "3e26b0dd5883bda3e0c7b2ce5c46340c"},
		{"/docs/a", 2, 7, "edea0193f223d0869c4a702fdfe44d93"},
		{"/docs/a", 0, 8, "0dae2b29c722df253586980bbb2f250d"},
		{"/docs/a", 1, 8, "1b9ff341f2c762497e9d4c0cb2726992"},
		{"/docs/a", 2, 8, "80d70d7dabfe1a4bb828794af99c42bd"},
		{"/docs/a", 0, 9, "3ef4b6ea1dc9bb4adef2c6b91a51627a"},
		{"/docs/a", 1, 9, "26afca2c8a5999ea46fecf1ead26647b"},
		{"/docs/a", 2, 9, "9feae9353643e28f078c37ba3c372e61"},
		{"/docs/a", 0, 1023, "5df2d5b76397b0315a7d91be9d50f0bf"},
		{"/docs/a", 1, 1023, "c0892a1f5f534bfec1a8a65950a9aae9"},
		{"/docs/a", 2, 1023, "e11bb224bfb06806fcf5af87a5e804b9"},
		{"/docs/a", 0, 128 << 10, "25400962c48613b3b02632e01199c2e1"},
		{"/docs/a", 1, 128 << 10, "bf4960f36f48be4e59c798d9d8cee425"},
		{"/docs/a", 2, 128 << 10, "f660ea126359723d7c9a07fa44848d4a"},
		{"/docs/a", 0, 1 << 20, "52c145e8c0b904056b46e263a50a39fc"},
		{"/docs/a", 1, 1 << 20, "50ef82c0f9a3ac0cc2baf62190754378"},
		{"/docs/a", 2, 1 << 20, "316f9de6f7fb11d38ecb8a9235794b05"},
		{"/x", 0, 9, "394aed00ca83ed52c6ac336f4bcb265f"},
		{"/x", 2, 1023, "b47bccd3f02a2cbae6e340f397ebf902"},
	} {
		sum := md5.Sum(o.Body(c.path, c.version, c.size))
		if got := hex.EncodeToString(sum[:]); got != c.md5 {
			t.Errorf("Body(%q, v%d, %d bytes): md5 %s, want %s", c.path, c.version, c.size, got, c.md5)
		}
	}
}

var bodySink []byte

// BenchmarkOriginBody generates one 128 KiB document body per iteration.
func BenchmarkOriginBody(b *testing.B) {
	o := New(7)
	b.SetBytes(128 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bodySink = o.Body("/docs/a", int64(i&3), 128<<10)
	}
}
