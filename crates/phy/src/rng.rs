//! The workspace's ChaCha8 generator.
//!
//! Every simulated draw — MAC backoff, fault lanes, scenario fuzzing and
//! capture synthesis — reads its words from [`ChaCha8Rng`]. It keeps the
//! `rand_chacha` 0.3 state layout (a 256-bit key, a 64-bit block counter
//! in words 12–13, a 64-bit stream id in words 14–15) and reads a
//! four-block buffer word by word as `rand_chacha`'s `BlockRng` does, so
//! `seed_from_u64`, `next_u32`, `next_u64`, `set_stream` and
//! `get_word_pos` yield that crate's sequences. The `rand_chacha`
//! stand-in under `layerbench/stand-ins/` is its reference twin:
//! `crates/phy/tests/rng_equivalence.rs` holds the two equal word for
//! word.
//!
//! Capture synthesis reads about two words per burst sample, so the
//! refill and the word reads are the hot path of `SynthStream`:
//!
//! * a refill computes each block on sixteen locals, which stay in
//!   registers through the rounds, and stores the block straight into
//!   the buffer;
//! * `next_u32` and `next_u64` are `#[inline]`, so once a kernel is
//!   monomorphized its draws reduce to an index test and a load, and
//!   only the refill is a call.

use rand::{RngCore, SeedableRng};

/// Words per ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Blocks generated per buffer refill.
const BUF_BLOCKS: usize = 4;
/// Words per buffer.
const BUF_WORDS: usize = BLOCK_WORDS * BUF_BLOCKS;
/// Double rounds per ChaCha8 block.
const DOUBLE_ROUNDS: usize = 4;

/// "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One ChaCha quarter round on four state words held in locals.
macro_rules! quarter_round {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(16);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(12);
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(8);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(7);
    };
}

/// Writes the ChaCha8 block at `counter` of `stream` under `key` into
/// `out`.
#[allow(clippy::cast_possible_truncation)] // splitting u64s into their 32-bit halves
fn block(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32; BLOCK_WORDS]) {
    let input = [
        SIGMA[0],
        SIGMA[1],
        SIGMA[2],
        SIGMA[3],
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        stream as u32,
        (stream >> 32) as u32,
    ];
    #[rustfmt::skip]
    let [
        mut x0, mut x1, mut x2, mut x3,
        mut x4, mut x5, mut x6, mut x7,
        mut x8, mut x9, mut x10, mut x11,
        mut x12, mut x13, mut x14, mut x15,
    ] = input;
    for _ in 0..DOUBLE_ROUNDS {
        quarter_round!(x0, x4, x8, x12);
        quarter_round!(x1, x5, x9, x13);
        quarter_round!(x2, x6, x10, x14);
        quarter_round!(x3, x7, x11, x15);
        quarter_round!(x0, x5, x10, x15);
        quarter_round!(x1, x6, x11, x12);
        quarter_round!(x2, x7, x8, x13);
        quarter_round!(x3, x4, x9, x14);
    }
    let state = [
        x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15,
    ];
    for ((o, s), i) in out.iter_mut().zip(state).zip(input) {
        *o = s.wrapping_add(i);
    }
}

/// The ChaCha generator with 8 rounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// Block position of the *next* buffer refill.
    counter: u64,
    stream: u64,
    buf: [u32; BUF_WORDS],
    /// Next unread word of `buf`; `BUF_WORDS` means empty.
    index: usize,
}

impl ChaCha8Rng {
    /// Refills the buffer with the four blocks from the current counter
    /// on. Kept out of line so the inlined word reads stay small.
    #[inline(never)]
    fn refill(&mut self) {
        let (blocks, _) = self.buf.as_chunks_mut::<BLOCK_WORDS>();
        for (b, out) in (0u64..).zip(blocks) {
            block(&self.key, self.counter.wrapping_add(b), self.stream, out);
        }
        self.counter = self.counter.wrapping_add(BUF_BLOCKS as u64);
    }

    /// Selects stream `stream`, keeping the word position.
    pub fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        if self.index != BUF_WORDS {
            self.set_word_pos(self.get_word_pos());
        }
    }

    /// The position of the next word within the stream (68 bits).
    pub fn get_word_pos(&self) -> u128 {
        let buf_start = self.counter.wrapping_sub(BUF_BLOCKS as u64);
        let pos = (u128::from(buf_start) << 4) + self.index as u128;
        pos & ((1 << 68) - 1)
    }

    /// Seeks to word `word_pos` of the current stream.
    #[allow(clippy::cast_possible_truncation)] // a 68-bit position: 64-bit block, 4-bit word
    fn set_word_pos(&mut self, word_pos: u128) {
        self.counter = (word_pos / BLOCK_WORDS as u128) as u64;
        self.refill();
        self.index = (word_pos % BLOCK_WORDS as u128) as usize;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (w, chunk) in key.iter_mut().zip(seed.as_chunks::<4>().0) {
            *w = u32::from_le_bytes(*chunk);
        }
        Self {
            key,
            counter: 0,
            stream: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        let i = if self.index < BUF_WORDS {
            self.index
        } else {
            self.refill();
            0
        };
        self.index = i + 1;
        self.buf[i]
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.index;
        if i < BUF_WORDS - 1 {
            self.index = i + 2;
            u64::from(self.buf[i + 1]) << 32 | u64::from(self.buf[i])
        } else if i >= BUF_WORDS {
            self.refill();
            self.index = 2;
            u64::from(self.buf[1]) << 32 | u64::from(self.buf[0])
        } else {
            // One word left: it becomes the low half.
            let lo = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill();
            self.index = 1;
            u64::from(self.buf[0]) << 32 | lo
        }
    }
}
