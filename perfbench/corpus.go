package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/corpus"
	"vxa/internal/wav"
)

// paperCodecs are the six decoders of the paper's Table 1 that every
// workload exercises.
var paperCodecs = []string{"deflate", "bwt", "dct", "haar", "lpc", "adpcm"}

// mustCodec returns a registered codec.
func mustCodec(name string) (*codec.Codec, error) {
	c, ok := codec.ByName(name)
	if !ok {
		return nil, fmt.Errorf("codec %s not registered", name)
	}
	return c, nil
}

// rawFor makes about n bytes of the raw input kind the codec encodes:
// text for the general-purpose codecs, a BMP for the image codecs and a
// stereo WAV for the audio codecs, all derived from seed.
func rawFor(c *codec.Codec, n int, seed int64) []byte {
	switch c.Output {
	case "BMP image":
		side := int(math.Sqrt(float64(n) / 3))
		if side < 8 {
			side = 8
		}
		return bmp.Encode(corpus.Image(side, side, seed))
	case "WAV audio":
		frames := n / 4
		if frames < 64 {
			frames = 64
		}
		return wav.Encode(corpus.Audio(frames, 2, seed))
	}
	return corpus.Text(n, seed)
}

// stream is one encoded input with its reference output.
type stream struct {
	codec string
	raw   []byte // the raw input
	enc   []byte // the codec's encoding of raw
	// want is the reference output: raw for lossless codecs, and the
	// native Go decoder's output of enc for lossy ones.
	want []byte
}

// encodeStream encodes raw with c and computes the reference output.
func encodeStream(c *codec.Codec, raw []byte) (stream, error) {
	var enc bytes.Buffer
	if err := c.Encode(&enc, raw); err != nil {
		return stream{}, fmt.Errorf("%s encode: %w", c.Name, err)
	}
	s := stream{codec: c.Name, raw: raw, enc: enc.Bytes(), want: raw}
	if c.Lossy {
		want, err := nativeDecode(c, s.enc)
		if err != nil {
			return stream{}, err
		}
		s.want = want
	}
	return s, nil
}

// nativeDecode runs the codec's native Go decoder.
func nativeDecode(c *codec.Codec, enc []byte) ([]byte, error) {
	var out bytes.Buffer
	if err := c.Decode(&out, bytes.NewReader(enc)); err != nil {
		return nil, fmt.Errorf("%s native decode: %w", c.Name, err)
	}
	return out.Bytes(), nil
}

// poolNativeTime is the mean native decode time of a pool stream: the
// median of five timed passes over the whole pool, divided by its size.
func poolNativeTime(pool []stream) (time.Duration, error) {
	passes := make([]float64, 5)
	for i := range passes {
		t0 := time.Now()
		for _, st := range pool {
			c, err := mustCodec(st.codec)
			if err != nil {
				return 0, err
			}
			if err := c.Decode(io.Discard, bytes.NewReader(st.enc)); err != nil {
				return 0, fmt.Errorf("%s native decode: %w", c.Name, err)
			}
		}
		passes[i] = float64(time.Since(t0))
	}
	return time.Duration(medianOf(passes) / float64(len(pool))), nil
}

// logSizes draws k sizes log-uniform in [lo, hi], stratified so every
// seed covers the range evenly, in seeded order.
func logSizes(rng *rand.Rand, k int, lo, hi float64) []int {
	out := make([]int, k)
	for j := range out {
		u := (float64(j) + rng.Float64()) / float64(k)
		out[j] = int(lo * math.Pow(hi/lo, u))
	}
	rng.Shuffle(k, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}
