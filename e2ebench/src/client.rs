//! The load generator: a keep-alive HTTP/1.1 client plus open- and
//! closed-loop drivers over one connection each.
//!
//! Each request is written head and body in one `write_all`: a small
//! head write followed by a body write trips client-side Nagle against
//! server-side delayed ACK (~40 ms stalls). Responses are framed by
//! `Content-Length` or `Transfer-Encoding: chunked`. A non-2xx answer,
//! a transport error and a timeout each count as one failed request.

use crate::trace::Tracer;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A response with its arrival times.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Decoded body (chunked framing removed).
    pub body: Vec<u8>,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// Whether the server asked to close the connection.
    pub close: bool,
}

/// Frames a request: head and body in one buffer, so one write sends it.
pub fn request(method: &str, target: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a read/write timeout.
    pub fn open(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    /// Sends one framed request and reads its response.
    pub fn exchange(&mut self, framed: &[u8]) -> io::Result<Reply> {
        self.writer.write_all(framed)?;
        read_response(&mut self.reader)
    }
}

/// Reads one response: status line, headers, then a body framed by
/// `Content-Length` or `Transfer-Encoding: chunked`.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Reply> {
    if r.fill_buf()?.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let first_byte = Instant::now();
    let status_line = read_line(r)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("bad status line `{status_line}`")))?;
    let mut length = None;
    let mut chunked = false;
    let mut close = false;
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("bad header `{line}`")));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad(format!("bad content-length `{value}`")))?,
                )
            }
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let body = if chunked {
        read_chunked(r)?
    } else {
        let mut body = vec![0u8; length.unwrap_or(0)];
        r.read_exact(&mut body)?;
        body
    };
    Ok(Reply {
        status,
        body,
        first_byte,
        close,
    })
}

fn read_chunked<R: BufRead>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let line = read_line(r)?;
        let size_hex = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16)
            .map_err(|_| bad(format!("bad chunk size `{line}`")))?;
        if size == 0 {
            // Trailer section: header lines up to an empty line.
            while !read_line(r)?.is_empty() {}
            return Ok(body);
        }
        let start = body.len();
        body.resize(start + size, 0);
        r.read_exact(&mut body[start..])?;
        if !read_line(r)?.is_empty() {
            return Err(bad("chunk data longer than its size".into()));
        }
    }
}

fn read_line<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    if line.len() > 64 * 1024 {
        return Err(bad("response line over 64 KiB".into()));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One prepared request of a stream.
pub struct Prepared {
    /// The framed request bytes.
    pub bytes: Vec<u8>,
    /// Keep the body of a 200 answer for the correctness gates.
    pub keep: bool,
}

/// How a lane paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Request `i` is due at `start + i / rate`, whether or not earlier
    /// ones have finished; latency is timed from the due time.
    Open {
        /// Requests per second over the whole stream.
        rate: f64,
    },
    /// The next request goes out as soon as the previous one finishes.
    Closed,
}

/// One finished request.
#[derive(Debug)]
pub struct Shot {
    /// Index of the request sent, into the lane's stream.
    pub index: usize,
    /// When it was due (the send time for a closed loop).
    pub due: Instant,
    /// When its bytes were written.
    pub sent: Instant,
    /// When the first response byte arrived (`done` on failure).
    pub first_byte: Instant,
    /// When the response was complete, or the failure seen.
    pub done: Instant,
    /// Status code; 0 for a transport failure or timeout.
    pub status: u16,
    /// The body, when the request asked for it and succeeded.
    pub body: Option<Vec<u8>>,
}

impl Shot {
    /// A 2xx answer.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Due-time latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// One connection's share of a stream: indices `first, first + stride,
/// ...` of `requests` (cycled), paced by `pace` from `start`, until
/// `stop(next_due, shots_so_far)` says to end.
#[derive(Clone, Copy)]
pub struct Lane<'a> {
    /// Daemon address.
    pub addr: SocketAddr,
    /// The stream, cycled by index.
    pub requests: &'a [Prepared],
    /// First index this lane sends.
    pub first: usize,
    /// Index step between this lane's requests.
    pub stride: usize,
    /// Added to every index to pick the request, so phases sharing a
    /// stream send different requests; pacing ignores it.
    pub offset: usize,
    /// Open or closed loop.
    pub pace: Pace,
    /// Stream start; due times are measured from here.
    pub start: Instant,
    /// Ends the lane before the request due at the given time.
    pub stop: &'a (dyn Fn(Instant, usize) -> bool + Sync),
    /// Socket timeout; a request that exceeds it fails.
    pub timeout: Duration,
}

/// Request ids shared by the spans of one request.
static REQUEST_IDS: AtomicU64 = AtomicU64::new(1);

/// Drives one lane to its end over one keep-alive connection (reopened
/// after a failure or a `Connection: close`) and returns every request
/// it sent.
pub fn run_lane(lane: &Lane, tracer: Option<&Tracer>, parent: u64) -> Vec<Shot> {
    let mut shots = Vec::new();
    let conn = &mut None::<Conn>;
    for j in 0.. {
        let index = lane.first + j * lane.stride;
        let due = match lane.pace {
            Pace::Open { rate } => lane.start + Duration::from_secs_f64(index as f64 / rate),
            Pace::Closed => Instant::now(),
        };
        if (lane.stop)(due, shots.len()) {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let pick = (lane.offset + index) % lane.requests.len();
        let prepared = &lane.requests[pick];
        let sent = Instant::now();
        let result = match conn.as_mut() {
            Some(c) => c.exchange(&prepared.bytes),
            None => Conn::open(lane.addr, lane.timeout).and_then(|mut c| {
                let reply = c.exchange(&prepared.bytes);
                *conn = Some(c);
                reply
            }),
        };
        let done = Instant::now();
        let shot = match result {
            Ok(reply) => {
                if reply.close {
                    *conn = None;
                }
                let ok = (200..300).contains(&reply.status);
                Shot {
                    index: pick,
                    due,
                    sent,
                    first_byte: reply.first_byte,
                    done,
                    status: reply.status,
                    body: (ok && prepared.keep).then_some(reply.body),
                }
            }
            Err(_) => {
                *conn = None;
                Shot {
                    index: pick,
                    due,
                    sent,
                    first_byte: done,
                    done,
                    status: 0,
                    body: None,
                }
            }
        };
        if let Some(t) = tracer {
            let rid = REQUEST_IDS.fetch_add(1, Ordering::Relaxed);
            let id = t.record("http.request", parent, rid, shot.due, shot.done);
            t.record("http.queue", id, rid, shot.due, shot.sent);
            t.record("http.ttfb", id, rid, shot.sent, shot.first_byte);
            t.record("http.body", id, rid, shot.first_byte, shot.done);
        }
        shots.push(shot);
    }
    shots
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};
    use std::net::TcpListener;

    #[test]
    fn decodes_content_length_and_chunked_bodies() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 200 OK\r\n\
                    Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
                    4;ext=1\r\nwiki\r\n5\r\npedia\r\n0\r\nX-Trailer: 1\r\n\r\n";
        let mut r = Cursor::new(&raw[..]);
        let a = read_response(&mut r).unwrap();
        assert_eq!(
            (a.status, a.body.as_slice(), a.close),
            (200, &b"hello"[..], false)
        );
        let b = read_response(&mut r).unwrap();
        assert_eq!(
            (b.status, b.body.as_slice(), b.close),
            (200, &b"wikipedia"[..], true)
        );
        assert!(read_response(&mut r).is_err(), "stream is exhausted");
    }

    #[test]
    fn rejects_malformed_chunk_framing() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(read_response(&mut Cursor::new(&raw[..])).is_err());
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabc\r\n0\r\n\r\n";
        assert!(read_response(&mut Cursor::new(&raw[..])).is_err());
    }

    /// A server that answers every request after `delay`, one at a time,
    /// and records when each request's bytes arrived in one read.
    fn slow_server(delay: Duration, answers: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for _ in 0..answers {
                let mut len = 0usize;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if line == "\r\n" {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body).unwrap();
                std::thread::sleep(delay);
                writer
                    .write_all(b"HTTP/1.1 503 Busy\r\nContent-Length: 2\r\n\r\nno")
                    .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_latency_counts_the_wait_behind_a_slow_request() {
        // Rate 100/s: requests due at 0, 10, 20 ms; each takes >= 30 ms
        // to answer on one connection, so later requests queue behind
        // earlier ones and their due-time latency grows.
        let (addr, server) = slow_server(Duration::from_millis(30), 3);
        let requests = vec![Prepared {
            bytes: request("POST", "/x", "text/plain", b"abc"),
            keep: true,
        }];
        let start = Instant::now();
        let end = start + Duration::from_millis(25);
        let stop = move |due: Instant, _: usize| due >= end;
        let lane = Lane {
            addr,
            requests: &requests,
            first: 0,
            stride: 1,
            offset: 0,
            pace: Pace::Open { rate: 100.0 },
            start,
            stop: &stop,
            timeout: Duration::from_secs(5),
        };
        let tracer = Tracer::new();
        let shots = run_lane(&lane, Some(&tracer), 0);
        server.join().unwrap();
        assert_eq!(shots.len(), 3);
        // A 503 counts as a failure and keeps no body.
        assert!(shots.iter().all(|s| !s.ok() && s.body.is_none()));
        for (i, s) in shots.iter().enumerate() {
            assert_eq!(s.due, start + Duration::from_millis(10 * i as u64));
            // Served one after another: request i completes no earlier
            // than 30 ms * (i + 1) after the start.
            assert!(s.latency_ms() >= 30.0 * (i + 1) as f64 - 10.0 * i as f64 - 1.0);
        }
        assert!(
            shots[2].lateness_ms() >= 40.0,
            "third request waited for two"
        );
        assert_eq!(tracer.spans().len(), 12, "four spans per request");
    }
}
