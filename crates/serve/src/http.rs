//! A deliberately tiny HTTP/1.1 subset: exactly what the result service
//! and its client need, over any `Read`/`Write` stream, with hard limits
//! on header and body sizes so a confused (or hostile) peer cannot make
//! the server buffer unboundedly.
//!
//! Every response and request carries `Connection: close` — one exchange
//! per TCP connection. Records are a few hundred bytes and loopback /
//! rack-local round-trips are microseconds, so the simplicity is worth
//! far more than keep-alive would save; batch fetches amortize the
//! handshake when it matters.

use std::io::{self, Read, Write};

/// Header naming a codec applied to a request body. Bodies are always
/// raw bytes, so the server answers any write carrying it with `400`
/// (older clients sent compressed bodies under it).
pub const ENCODING_HEADER: &str = "X-DRI-Encoding";

/// Upper bound on the request line + headers.
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request or response body (a batch of ~10k record
/// references, or a batch response of ~10k records, fits comfortably).
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// One parsed request (the subset the service routes on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the sender per RFC; not normalized).
    pub method: String,
    /// The request target, e.g. `/record/dri/v1/00ab…`.
    pub path: String,
    /// The keyed write-authentication tag from the `X-DRI-Token` header
    /// (see [`crate::auth`]); `None` when the header is absent. Read
    /// requests never need one.
    pub token: Option<String>,
    /// The body, sized by `Content-Length` (empty when absent).
    pub body: Vec<u8>,
    /// The [`ENCODING_HEADER`] value, if the sender named a body codec
    /// (`None` = raw, the only encoding the server accepts).
    pub encoding: Option<String>,
}

/// Reads until `\r\n\r\n`, returning `(head, leftover-body-bytes)`.
fn read_head(stream: &mut impl Read) -> io::Result<(String, Vec<u8>)> {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let body = buf.split_off(end + 4);
            buf.truncate(end);
            let head = String::from_utf8(buf)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
            return Ok((head, body));
        }
        if buf.len() > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Case-insensitive header lookup over raw header lines.
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    for line in head.lines().skip(1) {
        if let Some((found, value)) = line.split_once(':') {
            if found.trim().eq_ignore_ascii_case(name) {
                return Some(value.trim());
            }
        }
    }
    None
}

/// Case-insensitive `Content-Length` lookup over raw header lines.
fn content_length(head: &str) -> io::Result<usize> {
    match header(head, "content-length") {
        Some(value) => value
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")),
        None => Ok(0),
    }
}

/// Reads and parses one request from `stream`.
pub fn read_request(stream: &mut impl Read) -> io::Result<Request> {
    let (head, mut body) = read_head(stream)?;
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    };
    let length = content_length(&head)?;
    if length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    if body.len() < length {
        let missing = length - body.len();
        let mut rest = vec![0u8; missing];
        stream.read_exact(&mut rest)?;
        body.extend_from_slice(&rest);
    }
    body.truncate(length);
    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        token: header(&head, crate::auth::TOKEN_HEADER).map(str::to_owned),
        body,
        encoding: header(&head, ENCODING_HEADER).map(str::to_owned),
    })
}

/// Writes one complete `Connection: close` response.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut wire = render_head(status, reason, content_type, body.len());
    wire.extend_from_slice(body);
    stream.write_all(&wire)?;
    stream.flush()
}

/// Renders the status line + headers of a `Connection: close` response
/// into bytes, declaring `content_length` (for a `HEAD` reply, what the
/// matching `GET` would have carried, per RFC 9110 §9.3.2).
pub(crate) fn render_head(
    status: u16,
    reason: &str,
    content_type: &str,
    content_length: usize,
) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {content_length}\r\n\
         Connection: close\r\n\r\n"
    )
    .into_bytes()
}

/// Reads one complete response (status code + body), trusting
/// `Connection: close` framing: the body ends at EOF, cross-checked
/// against `Content-Length` when present.
pub fn read_response(stream: &mut impl Read) -> io::Result<(u16, Vec<u8>)> {
    let (head, mut body) = read_head(stream)?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut rest = Vec::new();
    stream.take(MAX_BODY as u64).read_to_end(&mut rest)?;
    body.extend_from_slice(&rest);
    let declared = content_length(&head)?;
    if declared != 0 && body.len() != declared {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "body length does not match Content-Length",
        ));
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_get_without_body() {
        let raw = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&mut &raw[..]).expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_content_length() {
        let raw = b"POST /batch HTTP/1.1\r\ncontent-length: 5\r\n\r\nhellotrailing-garbage";
        let req = read_request(&mut &raw[..]).expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello", "body is bounded by Content-Length");
        assert_eq!(req.token, None);
    }

    #[test]
    fn parses_the_token_header_case_insensitively() {
        let raw =
            b"PUT /record/dri/v1/00 HTTP/1.1\r\nX-DRI-Token: 00ff\r\ncontent-length: 1\r\n\r\nz";
        let req = read_request(&mut &raw[..]).expect("parse");
        assert_eq!(req.token.as_deref(), Some("00ff"));
        let raw = b"PUT / HTTP/1.1\r\nx-dri-token:  abc \r\n\r\n";
        let req = read_request(&mut &raw[..]).expect("parse");
        assert_eq!(req.token.as_deref(), Some("abc"), "trimmed value");
    }

    #[test]
    fn response_roundtrip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "OK", "application/octet-stream", b"abc").unwrap();
        let (status, body) = read_response(&mut &wire[..]).expect("parse");
        assert_eq!(status, 200);
        assert_eq!(body, b"abc");
    }

    #[test]
    fn requests_surface_the_encoding_header() {
        let raw = b"POST /batch-put HTTP/1.1\r\nx-dri-encoding: delta64\r\n\
                    content-length: 2\r\n\r\nok";
        let req = read_request(&mut &raw[..]).expect("parse");
        assert_eq!(req.encoding.as_deref(), Some("delta64"));
        let raw = b"GET /stats HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..]).expect("parse");
        assert_eq!(req.encoding, None);
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(read_request(&mut &b"\r\n\r\n"[..]).is_err());
        assert!(read_request(&mut &b"GET\r\n\r\n"[..]).is_err());
        assert!(read_request(&mut &b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n"[..]).is_err());
        // EOF before the head terminator.
        assert!(read_request(&mut &b"GET / HTTP/1.1\r\n"[..]).is_err());
        // A declared body past MAX_BODY is refused before any of it is read.
        let oversized = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = read_request(&mut oversized.as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "request body too large");
        // A head past MAX_HEAD with no terminator is refused mid-stream.
        let endless = vec![b'a'; MAX_HEAD + 4096];
        let err = read_request(&mut &endless[..]).unwrap_err();
        assert_eq!(err.to_string(), "request head too large");
    }
}
