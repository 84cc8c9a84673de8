//! Shared-secret request authentication for the write path.
//!
//! The build environment is offline and dependency-free, so there is no
//! crypto crate to lean on. Instead of sending the secret itself, a
//! pushing client proves knowledge of it with a **keyed request tag**: an
//! HMAC-style double hash, built from the same fixed-constant 128-bit
//! FNV-1a primitive ([`dri_store::KeyHasher`]) the store keys use, over
//! the request's method, path, and full body:
//!
//! ```text
//! tag = H(0x5c ‖ secret ‖ H(0x36 ‖ secret ‖ method ‖ path ‖ len(body) ‖ body))
//! ```
//!
//! The tag travels in the [`TOKEN_HEADER`] request header as 32 hex
//! digits, and the server recomputes it from the secret it holds
//! (`DRI_TOKEN`) and the request it actually received — so the secret
//! never crosses the wire, a tag cannot be replayed against a *different*
//! record or endpoint, and a tampered body fails verification. The
//! comparison is constant-time ([`constant_time_eq_u128`]).
//!
//! **Scope.** FNV-1a is not a cryptographic hash; this construction
//! authenticates *trusted workers on a trusted network* (the fleet the
//! README's distributed-campaign section describes) and keeps a confused
//! or misconfigured client from corrupting a shared store. It is not a
//! defense against an adversary with wire access — front the service
//! with real TLS/auth infrastructure for that.

use dri_store::KeyHasher;

/// Request header carrying the keyed request tag (32 hex digits).
pub const TOKEN_HEADER: &str = "x-dri-token";

/// Domain-separation byte starting the inner hash (HMAC's `ipad` role).
const INNER_TAG: u8 = 0x36;
/// Domain-separation byte starting the outer hash (HMAC's `opad` role).
const OUTER_TAG: u8 = 0x5c;

/// Computes the keyed request tag for (`method`, `path`, `body`) under
/// `secret` (see the module docs for the construction).
pub fn sign(secret: &str, method: &str, path: &str, body: &[u8]) -> u128 {
    let mut inner = KeyHasher::new();
    inner.write_u8(INNER_TAG);
    inner.write_str(secret);
    inner.write_str(method);
    inner.write_str(path);
    inner.write_u64(body.len() as u64);
    inner.write_bytes(body);
    let mut outer = KeyHasher::new();
    outer.write_u8(OUTER_TAG);
    outer.write_str(secret);
    outer.write_u128(inner.finish());
    outer.finish()
}

/// [`sign`] rendered the way it travels: 32 lowercase hex digits.
pub fn sign_hex(secret: &str, method: &str, path: &str, body: &[u8]) -> String {
    format!("{:032x}", sign(secret, method, path, body))
}

/// Parses a presented tag (exactly 32 hex digits; case-insensitive).
pub fn parse_tag(presented: &str) -> Option<u128> {
    let presented = presented.trim();
    if presented.len() != 32 {
        return None;
    }
    u128::from_str_radix(presented, 16).ok()
}

/// Constant-time equality of two tags: the comparison cost never depends
/// on *where* the values diverge, so response timing leaks nothing about
/// how close a forged tag came.
pub fn constant_time_eq_u128(a: u128, b: u128) -> bool {
    let diff = a ^ b;
    let mut acc = 0u8;
    for byte in diff.to_le_bytes() {
        acc |= byte;
    }
    acc == 0
}

/// Verifies a presented header value against the expected tag for this
/// request. `None`/malformed tags fail closed.
pub fn verify(
    secret: &str,
    method: &str,
    path: &str,
    body: &[u8],
    presented: Option<&str>,
) -> bool {
    let Some(presented) = presented.and_then(parse_tag) else {
        return false;
    };
    constant_time_eq_u128(sign(secret, method, path, body), presented)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_deterministic_and_input_sensitive() {
        let tag = sign("secret", "PUT", "/record/dri/v1/00ff", b"payload");
        assert_eq!(
            tag,
            sign("secret", "PUT", "/record/dri/v1/00ff", b"payload")
        );
        for (secret, method, path, body) in [
            ("secret2", "PUT", "/record/dri/v1/00ff", &b"payload"[..]),
            ("secret", "POST", "/record/dri/v1/00ff", b"payload"),
            ("secret", "PUT", "/record/dri/v1/00fe", b"payload"),
            ("secret", "PUT", "/record/dri/v1/00ff", b"payloae"),
            ("secret", "PUT", "/record/dri/v1/00ff", b""),
        ] {
            assert_ne!(tag, sign(secret, method, path, body), "{method} {path}");
        }
    }

    #[test]
    fn hex_roundtrip_and_verification() {
        let hex = sign_hex("s", "PUT", "/p", b"b");
        assert_eq!(hex.len(), 32);
        assert_eq!(parse_tag(&hex), Some(sign("s", "PUT", "/p", b"b")));
        assert!(verify("s", "PUT", "/p", b"b", Some(&hex)));
        assert!(verify("s", "PUT", "/p", b"b", Some(&hex.to_uppercase())));
        assert!(!verify("s", "PUT", "/p", b"x", Some(&hex)), "other body");
        assert!(!verify("t", "PUT", "/p", b"b", Some(&hex)), "other secret");
        assert!(!verify("s", "PUT", "/p", b"b", None), "missing header");
        assert!(!verify("s", "PUT", "/p", b"b", Some("zz")), "malformed tag");
    }

    #[test]
    fn constant_time_compare_agrees_with_plain_equality() {
        assert!(constant_time_eq_u128(0, 0));
        assert!(constant_time_eq_u128(u128::MAX, u128::MAX));
        assert!(!constant_time_eq_u128(1, 0));
        assert!(!constant_time_eq_u128(1 << 127, 0));
    }
}
