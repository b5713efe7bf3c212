//! The daemon's IO shell: TCP / Unix-domain transport around
//! [`ServerCore`](crate::core::ServerCore).
//!
//! Networking is deliberately thin — one connection served at a time,
//! blocking reads, responses written back as length-prefixed frames.
//! All evaluation state lives in the core, which stays byte-stream →
//! line-stream deterministic; the transport only moves bytes.

use crate::core::ServerCore;
use crate::frame::{encode_frame, FrameDecoder};
use crate::retry::{retry_session, RetryOutcome, RetryPolicy};
use ripq_core::RipqError;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Where the daemon listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP, e.g. `127.0.0.1:0` (port 0 picks a free port).
    Tcp(String),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

impl Endpoint {
    /// Parses `tcp:HOST:PORT` / `uds:PATH` (bare values with a `/` or
    /// without a `:` are treated as UDS paths, else TCP).
    pub fn parse(spec: &str) -> Endpoint {
        if let Some(rest) = spec.strip_prefix("tcp:") {
            return Endpoint::Tcp(rest.to_string());
        }
        if let Some(rest) = spec.strip_prefix("uds:") {
            return Endpoint::Uds(PathBuf::from(rest));
        }
        if spec.contains('/') || !spec.contains(':') {
            Endpoint::Uds(PathBuf::from(spec))
        } else {
            Endpoint::Tcp(spec.to_string())
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    Uds(UnixListener),
}

enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Stream {
    fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Write),
            Stream::Uds(s) => s.shutdown(Shutdown::Write),
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
        })
    }
}

/// Unsized byte-buffer alias for IO signatures; this crate's panic
/// surface (including index-expression shapes) is ratcheted to zero.
type IoBuf = [u8];

impl Read for Stream {
    fn read(&mut self, buf: &mut IoBuf) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

fn io_err(context: &str, e: std::io::Error) -> RipqError {
    RipqError::Io(format!("{context}: {e}"))
}

/// A bound, listening daemon socket. Binding is split from serving so a
/// caller (tests, CI) knows the endpoint is ready before launching a
/// client.
pub struct Server {
    listener: ListenerKind,
    endpoint: Endpoint,
}

impl Server {
    /// Binds the endpoint. A stale UDS socket file is removed first.
    pub fn bind(endpoint: &Endpoint) -> Result<Server, RipqError> {
        let listener = match endpoint {
            Endpoint::Tcp(addr) => ListenerKind::Tcp(
                TcpListener::bind(addr).map_err(|e| io_err(&format!("bind {addr}"), e))?,
            ),
            Endpoint::Uds(path) => {
                let _ = std::fs::remove_file(path);
                ListenerKind::Uds(
                    UnixListener::bind(path)
                        .map_err(|e| io_err(&format!("bind {}", path.display()), e))?,
                )
            }
        };
        Ok(Server {
            listener,
            endpoint: endpoint.clone(),
        })
    }

    /// The bound endpoint, with the real TCP port resolved (useful after
    /// binding port 0).
    pub fn endpoint(&self) -> Endpoint {
        match &self.listener {
            ListenerKind::Tcp(l) => match l.local_addr() {
                Ok(addr) => Endpoint::Tcp(addr.to_string()),
                Err(_) => self.endpoint.clone(),
            },
            ListenerKind::Uds(_) => self.endpoint.clone(),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match &self.listener {
            ListenerKind::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            ListenerKind::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
        }
    }

    /// Serves connections one at a time until the core acknowledges a
    /// `shutdown` frame, then returns. A dropped connection ends that
    /// stream (possibly with a truncation error line) and the loop moves
    /// to the next client; the core's state carries across connections.
    pub fn serve(&self, core: &mut ServerCore) -> Result<(), RipqError> {
        while !core.is_shutdown() {
            let conn = self.accept().map_err(|e| io_err("accept", e))?;
            // A connection-level IO failure abandons this client but
            // never the daemon.
            let _ = serve_connection(conn, core);
        }
        // A UDS socket file is not reusable after close; tidy it up.
        if let Endpoint::Uds(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

fn write_lines(conn: &mut Stream, lines: &[String]) -> std::io::Result<()> {
    for line in lines {
        conn.write_all(&encode_frame(line.as_bytes()))?;
    }
    if !lines.is_empty() {
        conn.flush()?;
    }
    Ok(())
}

fn serve_connection(mut conn: Stream, core: &mut ServerCore) -> std::io::Result<()> {
    let mut buf = [0u8; 8192];
    loop {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            let tail = core.finish_input();
            write_lines(&mut conn, &tail)?;
            return Ok(());
        }
        let Some(chunk) = buf.get(..n) else {
            return Ok(());
        };
        let lines = core.ingest_bytes(chunk);
        write_lines(&mut conn, &lines)?;
        if core.is_shutdown() {
            let _ = conn.shutdown_write();
            return Ok(());
        }
    }
}

/// Connects to a daemon, sends every payload as a frame, half-closes the
/// write side, and returns all response lines until the server closes
/// the connection. The write runs on a helper thread so neither side can
/// deadlock on full socket buffers.
pub fn send_frames(endpoint: &Endpoint, payloads: &[Vec<u8>]) -> Result<Vec<String>, RipqError> {
    let stream = match endpoint {
        Endpoint::Tcp(addr) => Stream::Tcp(
            TcpStream::connect(addr).map_err(|e| io_err(&format!("connect {addr}"), e))?,
        ),
        Endpoint::Uds(path) => Stream::Uds(
            UnixStream::connect(path)
                .map_err(|e| io_err(&format!("connect {}", path.display()), e))?,
        ),
    };
    let mut writer = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
    let mut reader = stream;
    let mut wire = Vec::new();
    for payload in payloads {
        wire.extend_from_slice(&encode_frame(payload));
    }
    std::thread::scope(|scope| -> Result<Vec<String>, RipqError> {
        let sender = scope.spawn(move || -> std::io::Result<()> {
            writer.write_all(&wire)?;
            writer.flush()?;
            writer.shutdown_write()
        });
        let mut decoder = FrameDecoder::new();
        let mut lines = Vec::new();
        let mut buf = [0u8; 8192];
        loop {
            let n = reader.read(&mut buf).map_err(|e| io_err("read", e))?;
            if n == 0 {
                break;
            }
            if let Some(chunk) = buf.get(..n) {
                decoder.push(chunk);
            }
            while let Some(frame) = decoder.next_frame() {
                match frame {
                    Ok(payload) => lines.push(String::from_utf8_lossy(&payload).into_owned()),
                    Err(e) => return Err(RipqError::Io(format!("response frame: {e}"))),
                }
            }
        }
        match sender.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                // The server may close early after `shutdown`; a broken
                // pipe on the tail of the write is expected then.
                if lines.is_empty() {
                    return Err(io_err("send", e));
                }
            }
            Err(_) => return Err(RipqError::Io("sender thread panicked".to_string())),
        }
        decoder
            .finish()
            .map_err(|e| RipqError::Io(format!("response stream: {e}")))?;
        Ok(lines)
    })
}

fn connect(endpoint: &Endpoint) -> Result<Stream, RipqError> {
    Ok(match endpoint {
        Endpoint::Tcp(addr) => Stream::Tcp(
            TcpStream::connect(addr).map_err(|e| io_err(&format!("connect {addr}"), e))?,
        ),
        Endpoint::Uds(path) => Stream::Uds(
            UnixStream::connect(path)
                .map_err(|e| io_err(&format!("connect {}", path.display()), e))?,
        ),
    })
}

/// `true` when `line` concludes a request's response (acks, busy and
/// error lines; delta/event lines always precede their tick ack).
fn is_terminal_line(line: &str) -> bool {
    line.starts_with("{\"ok\":")
        || line.starts_with("{\"busy\":")
        || line.starts_with("{\"error\":")
        || line.starts_with("{\"counters\"")
}

/// A request/response client over one connection: each frame is sent
/// alone and its response lines are read back before the next frame
/// goes out — the shape the retry protocol needs (a pipelined writer
/// could not react to `busy` lines).
struct InteractiveClient {
    reader: Stream,
    writer: Stream,
    decoder: FrameDecoder,
}

impl InteractiveClient {
    fn connect(endpoint: &Endpoint) -> Result<Self, RipqError> {
        let reader = connect(endpoint)?;
        let writer = reader.try_clone().map_err(|e| io_err("clone stream", e))?;
        Ok(InteractiveClient {
            reader,
            writer,
            decoder: FrameDecoder::new(),
        })
    }

    /// Sends one frame and reads its full response (ending at the
    /// terminal line). An empty vec means the server closed first.
    fn send(&mut self, payload: &[u8]) -> Result<Vec<String>, RipqError> {
        self.writer
            .write_all(&encode_frame(payload))
            .map_err(|e| io_err("send", e))?;
        self.writer.flush().map_err(|e| io_err("send", e))?;
        let mut lines = Vec::new();
        let mut buf = [0u8; 8192];
        loop {
            while let Some(frame) = self.decoder.next_frame() {
                match frame {
                    Ok(bytes) => {
                        let line = String::from_utf8_lossy(&bytes).into_owned();
                        let terminal = is_terminal_line(&line);
                        lines.push(line);
                        if terminal {
                            return Ok(lines);
                        }
                    }
                    Err(e) => return Err(RipqError::Io(format!("response frame: {e}"))),
                }
            }
            let n = self.reader.read(&mut buf).map_err(|e| io_err("read", e))?;
            if n == 0 {
                return Ok(lines);
            }
            if let Some(chunk) = buf.get(..n) {
                self.decoder.push(chunk);
            }
        }
    }
}

/// [`send_frames`] with the deterministic retry protocol of
/// [`crate::retry`]: frames are sent one at a time; shed data frames
/// queue and are resent (in order) when the deferred tick invites a
/// retry. Returns the [`RetryOutcome`] whose `lines` are byte-identical
/// to an unthrottled session when retry converged.
pub fn send_frames_with_retry(
    endpoint: &Endpoint,
    payloads: &[Vec<u8>],
    policy: &RetryPolicy,
) -> Result<RetryOutcome, RipqError> {
    let mut client = InteractiveClient::connect(endpoint)?;
    retry_session(payloads, policy, |frame| client.send(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServerConfig;
    use ripq_floorplan::{office_building, OfficeParams};

    fn frames() -> Vec<Vec<u8>> {
        vec![
            b"{\"op\":\"subscribe\",\"sub\":1,\"range\":[0,0,12,8]}".to_vec(),
            b"{\"op\":\"reading\",\"second\":0,\"readings\":[[0,1],[1,2]]}".to_vec(),
            b"{\"op\":\"tick\",\"second\":1}".to_vec(),
            b"{\"op\":\"shutdown\"}".to_vec(),
        ]
    }

    fn run_over(endpoint: Endpoint) -> Vec<String> {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut core = ServerCore::new(plan, ServerConfig::default());
        let server = Server::bind(&endpoint).unwrap();
        let bound = server.endpoint();
        let handle = std::thread::spawn(move || {
            server.serve(&mut core).unwrap();
            core.lines_emitted()
        });
        let lines = send_frames(&bound, &frames()).unwrap();
        let emitted = handle.join().unwrap();
        assert_eq!(emitted as usize, lines.len());
        lines
    }

    #[test]
    fn tcp_round_trip_serves_a_full_session() {
        let lines = run_over(Endpoint::Tcp("127.0.0.1:0".to_string()));
        assert_eq!(
            lines.first().map(String::as_str),
            Some("{\"ok\":\"subscribe\",\"sub\":1}")
        );
        assert_eq!(
            lines.last().map(String::as_str),
            Some("{\"ok\":\"shutdown\"}")
        );
    }

    #[test]
    fn uds_round_trip_matches_tcp_byte_for_byte() {
        let path = std::env::temp_dir().join("ripq_net_test.sock");
        let tcp = run_over(Endpoint::Tcp("127.0.0.1:0".to_string()));
        let uds = run_over(Endpoint::Uds(path.clone()));
        assert_eq!(tcp, uds, "transport must not affect output");
        assert!(!path.exists(), "socket file cleaned up after shutdown");
    }

    #[test]
    fn state_survives_across_connections() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut core = ServerCore::new(plan, ServerConfig::default());
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
        let bound = server.endpoint();
        let handle = std::thread::spawn(move || {
            server.serve(&mut core).unwrap();
        });
        let first = send_frames(
            &bound,
            &[b"{\"op\":\"subscribe\",\"sub\":9,\"range\":[0,0,4,4]}".to_vec()],
        )
        .unwrap();
        assert_eq!(first, vec!["{\"ok\":\"subscribe\",\"sub\":9}"]);
        let second = send_frames(
            &bound,
            &[
                b"{\"op\":\"unsubscribe\",\"sub\":9}".to_vec(),
                b"{\"op\":\"shutdown\"}".to_vec(),
            ],
        )
        .unwrap();
        assert_eq!(
            second,
            vec![
                "{\"ok\":\"unsubscribe\",\"sub\":9}".to_string(),
                "{\"ok\":\"shutdown\"}".to_string()
            ]
        );
        handle.join().unwrap();
    }

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:4000"),
            Endpoint::Tcp("127.0.0.1:4000".to_string())
        );
        assert_eq!(
            Endpoint::parse("uds:/tmp/x.sock"),
            Endpoint::Uds(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Endpoint::parse("/tmp/y.sock"),
            Endpoint::Uds(PathBuf::from("/tmp/y.sock"))
        );
        assert_eq!(
            Endpoint::parse("localhost:9"),
            Endpoint::Tcp("localhost:9".to_string())
        );
        assert_eq!(
            Endpoint::parse("plainname"),
            Endpoint::Uds(PathBuf::from("plainname"))
        );
    }
}
