package nn

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCheckpointGoldenDigest pins the bytes of the seeded
// 500-500-500-5 float32 network, whose arena is written through the bulk
// path of wire.FileWriter in many pieces.
func TestCheckpointGoldenDigest(t *testing.T) {
	const want = "5ecc29eb130b00755fef32c6fdc668ea64ec19fc9d71add61b3938fdaa7a2b53"
	file := checkpointBytes(t, rigNetwork())
	if got := sha256.Sum256(file); hex.EncodeToString(got[:]) != want {
		t.Fatalf("rig checkpoint sha256 = %x, want %s", got, want)
	}
}
