package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// goldenFingerprints pins the SHA-256 of the result JSON and of the
// span-tree JSON (every query traced) of the reference scenarios, keyed
// "scenario/seed". The tests that already run these scenarios check
// their output against the pins, so any change to the simulation's
// behaviour — an event reordered, a random draw added, a span moved —
// fails here, not only a change between two runs of the same binary.
// A commit that changes behaviour on purpose re-pins the entries it
// moves and says why; the failure message prints the new hash.
var goldenFingerprints = map[string]struct{ result, spans string }{
	"fig3/1": {
		"b11048e03bb85878a672df6f92508d31b619e092d4dab934d133efe0c584dc03",
		"53029f45567dd924f277c9183bb34ffdbc197cdfad780719ca232d6a711c9c17",
	},
	"fig3/2": {
		"6da439002f0d0ed0a2e5d347f89eb5759ca5fd630aaf241519cc47a12487d0eb",
		"29a5e87ccb058cd101aed39dbe9560f6b666b6031ed73dab0b9a85d8c330f632",
	},
	"fig3/3": {
		"341a2b9c6d56216a289e1b285d1cbfa40e33b5e286ff3f65706f7ceea4241347",
		"73a7b17fb322471fbf6b09fd6c6b0d5f357684053d2f603ae2ced853d8866dbb",
	},
	"fig4/1": {
		"699c210eb1929efd5c9a0d27974eb1bab860a2da416fe7e5283f7652eaf8d91d",
		"0b01a55cbf9e9a9c2b8170e2ecc0acde775ebc2040b843a25469603f1d12bc60",
	},
	"fig4/2": {
		"14881f74318443bf4b0624bef1e61ee6c2c3068596fb30c9de95be3ab1a49e5d",
		"ef21b80ba5de64807f1c432b64950c464332f92d202542b072d9ada9cfd72543",
	},
	"fig4/3": {
		"d7a79600f3556b6b79cef410d8839f33f5a1928c7ad0f8cb7f197b4e24118261",
		"8df504e7a7cb2b3a102f011e77b6efc84d93a8722e4a278ffe8f4d1cf41229b4",
	},
	"chaos-gray/1": {
		"99c65a5e880c6c22946ed719a32e894d712ec7c08d592a06c6ea9d53cedb39f9",
		"82aba3d75ffcc968aabe8636a9f22f6dbeb6a45e54ec413ee315e53b7c3db00c",
	},
	"chaos-gray/2": {
		"3c3ec815dfad71df0796c4daf07b4046e402fc8da047e251b279d00fd1c46e33",
		"a6a29e28daad1e0620b1f1e97d72f6d818c347571ba1f21c9b0023301ee27a28",
	},
	"chaos-gray/3": {
		"cca7b70fce481c283d9172b61448e3258a43f1a8752c4c26139980457072d540",
		"0dde1d1cb635f28e964884984a93cf36be0e1150cb94a247664e102b90747d4e",
	},
	"overload/1": {
		"946b14b17d2314ccb55a4c6b8e30344d2c332824d5b85482a6aaa9c99e583dbd",
		"803b8c80cef2f1fe4ad12f46236429a9e81ac04f9d35964f4f0db3e75d49a638",
	},
	"overload/2": {
		"7cb9a76d85c9a2283ab234ba0d06a5c824779075b49f6c0304076540ea05e129",
		"a8adeb84755a23ab76c09a2152b319250c28d46c44fd553c1443e3cb1810018b",
	},
	"overload/3": {
		"048ddba0cebc55a114ecacdebd7ead858166d4e3b7f9e24dcd47350b954c1318",
		"e9fc4063709d5cf91ae24b783a46c422d0a6e94f920ee71c6706e66587d6fdb4",
	},
}

// checkGolden fails t unless result and spans hash to the fingerprints
// pinned for scenario under seed.
func checkGolden(t *testing.T, scenario string, seed uint64, result, spans []byte) {
	t.Helper()
	key := fmt.Sprintf("%s/%d", scenario, seed)
	want, ok := goldenFingerprints[key]
	if !ok {
		t.Errorf("%s: no golden fingerprint pinned (result %s, spans %s)", key, sha256Hex(result), sha256Hex(spans))
		return
	}
	if got := sha256Hex(result); got != want.result {
		t.Errorf("%s: result JSON hashes to %s, pinned %s", key, got, want.result)
	}
	if got := sha256Hex(spans); got != want.spans {
		t.Errorf("%s: span-tree JSON hashes to %s, pinned %s", key, got, want.spans)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// mustJSON marshals v for a fingerprint.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
