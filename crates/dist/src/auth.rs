//! Shared-secret worker authentication: HMAC-SHA-256 challenge/response.
//!
//! When a coordinator is started with an auth token, every connection must
//! prove knowledge of the same token before the coordinator reveals any
//! campaign state (fingerprint comparison, slot assignment, the campaign
//! seed). The handshake is a standard challenge/response:
//!
//! ```text
//! worker                          coordinator
//!   | -- hello {worker_id} ------>  |   version check only
//!   | <- challenge {nonce} -------  |   fresh per-connection nonce
//!   | -- auth {proof} ----------->  |   proof = HMAC-SHA256(token,
//!   | <- welcome / reject --------  |           nonce "|" worker_id)
//! ```
//!
//! The nonce is fresh per connection, so a captured proof cannot be
//! replayed against a later handshake. Since protocol v6 the proof also
//! covers the identity the worker announced in `hello`, so the
//! coordinator's trust records (spot-check verdicts, quarantine,
//! eviction) are keyed to an *authenticated* identity: a peer cannot
//! replay someone else's proof under a different name to inherit or
//! shed a record. SHA-256 and HMAC are implemented
//! here (FIPS 180-4 / RFC 2104) because the workspace is dependency-free
//! by policy; the vectors in the tests pin them to the RFC 4231 and NIST
//! reference values.
//!
//! **Scope.** This authenticates *peers*, not *traffic*: frames after the
//! handshake are neither encrypted nor MACed, so the token keeps strangers
//! and misconfigured fleets out but does not protect against an active
//! network attacker. Run fleets on trusted networks (or through a tunnel);
//! see the README's security-posture section.

#![expect(
    clippy::indexing_slicing,
    reason = "the SHA-256/HMAC kernels index fixed-size [u32; 64]/[u32; 8]/[u8; 64] arrays \
              with compile-time-bounded loop indices and constant ranges; none of the \
              subscripts depend on input"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 digest of `data` (FIPS 180-4).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padding: 0x80, zeros, then the bit length as a big-endian u64.
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = chunk.iter().fold(0u32, |acc, &b| (acc << 8) | u32::from(b));
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16].wrapping_add(s0).wrapping_add(w[t - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[t]).wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *s = s.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// HMAC-SHA-256 of `msg` under `key` (RFC 2104).
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..32].copy_from_slice(&sha256(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    inner.extend_from_slice(msg);
    let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
    outer.extend_from_slice(&sha256(&inner));
    sha256(&outer)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The proof a worker presents for a challenge nonce:
/// `hex(HMAC-SHA256(token, nonce "|" worker_id))`. Binding the identity
/// announced at `hello` into the MAC makes the identity as trustworthy
/// as the token itself.
pub fn proof(token: &str, nonce: &str, worker_id: &str) -> String {
    let msg = format!("{nonce}|{worker_id}");
    hex(&hmac_sha256(token.as_bytes(), msg.as_bytes()))
}

/// Verifies a presented proof against the expected one without an early
/// exit, so the comparison time does not leak how long the matching
/// prefix was.
pub fn verify(token: &str, nonce: &str, worker_id: &str, presented: &str) -> bool {
    let expected = proof(token, nonce, worker_id);
    let mut diff = expected.len() ^ presented.len();
    for (a, b) in expected.bytes().zip(presented.bytes()) {
        diff |= (a ^ b) as usize;
    }
    diff == 0
}

/// A fresh per-connection challenge nonce: 32 hex chars hashed from the
/// wall clock, a process-wide counter, and ASLR'd addresses. Not a CSPRNG,
/// but unpredictable enough that proofs cannot be precomputed and never
/// repeats within a process (the counter alone guarantees that).
pub fn nonce() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.subsec_nanos()).unwrap_or(0);
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let stack_probe = &count as *const _ as usize;
    let mut seed = Vec::new();
    seed.extend_from_slice(&count.to_le_bytes());
    seed.extend_from_slice(&nanos.to_le_bytes());
    seed.extend_from_slice(&secs.to_le_bytes());
    seed.extend_from_slice(&(stack_probe as u64).to_le_bytes());
    seed.extend_from_slice(&(nonce as fn() -> String as usize as u64).to_le_bytes());
    hex(&sha256(&seed)[..16])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_nist_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A multi-block message (> 64 bytes).
        assert_eq!(
            hex(&sha256(&[b'a'; 1000])),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn hmac_matches_rfc4231_vectors() {
        // RFC 4231 test case 1.
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2: shorter-than-block key ("Jefe").
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Test case 6: key longer than one block (hashed first).
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn proof_verifies_only_with_the_right_token_nonce_and_identity() {
        let n = nonce();
        let p = proof("secret", &n, "w-1");
        assert!(verify("secret", &n, "w-1", &p));
        assert!(!verify("other", &n, "w-1", &p));
        assert!(!verify("secret", &nonce(), "w-1", &p));
        // A proof cannot be replayed under a different identity.
        assert!(!verify("secret", &n, "w-2", &p));
        assert!(!verify("secret", &n, "w-1", ""));
        assert!(!verify("secret", &n, "w-1", &format!("{p}00")));
    }

    #[test]
    fn nonces_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let n = nonce();
            assert_eq!(n.len(), 32);
            assert!(n.bytes().all(|b| b.is_ascii_hexdigit()));
            assert!(seen.insert(n), "nonce repeated");
        }
    }
}
