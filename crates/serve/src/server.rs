//! The TCP server: accept loop, per-connection framing, graceful
//! shutdown.
//!
//! Each connection gets one thread that frames newline-delimited
//! requests, answers framing-level failures (oversized lines, invalid
//! UTF-8, idle timeouts) with typed errors directly, and evaluates
//! every well-framed line itself through [`Engine::handle_line`], so a
//! slow request delays only its own connection. Reads poll with a
//! short timeout so connections notice the shutdown latch promptly; a
//! `shutdown` request (or [`Server::shutdown`]) stops the accept loop,
//! lets every in-flight request finish and be answered, then joins all
//! threads — no request that reached the engine is ever dropped.

use crate::engine::Engine;
use crate::protocol::{ErrorCode, MAX_REQUEST_BYTES};
use crate::registry::FlowRegistry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs (all have serviceable defaults).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Hard bound on one request line, bytes.
    pub max_request_bytes: usize,
    /// Poll granularity of connection reads — the latency bound on
    /// noticing the shutdown latch, not a protocol timeout.
    pub read_poll: Duration,
    /// Close a connection (with a typed `timeout` error) after this
    /// much client silence.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_request_bytes: MAX_REQUEST_BYTES,
            read_poll: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// A running `ipassd` server.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    engine: Arc<Engine>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `registry`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(
        registry: FlowRegistry,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Engine::new(registry));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_engine = Arc::clone(&engine);
        let accept_connections = Arc::clone(&connections);
        let accept = std::thread::spawn(move || {
            accept_loop(&listener, &accept_engine, &accept_connections, &config);
        });

        Ok(Server {
            addr,
            engine,
            accept: Some(accept),
            connections,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown programmatically and wake the accept loop.
    pub fn shutdown(&self) {
        self.engine.request_shutdown();
        self.wake_accept();
    }

    /// Block until shutdown is requested (e.g. by a client's
    /// `shutdown` verb), then drain and join everything.
    pub fn wait(self) {
        while !self.engine.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.join();
    }

    /// Let in-flight requests finish and join all threads. Call after
    /// [`Server::shutdown`] (it is invoked implicitly if shutdown was
    /// requested over the wire).
    pub fn join(mut self) {
        self.engine.request_shutdown();
        self.wake_accept();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles =
            std::mem::take(&mut *self.connections.lock().unwrap_or_else(|p| p.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// The accept loop blocks in `accept()`; a throwaway local
    /// connection unblocks it so it can observe the latch.
    fn wake_accept(&self) {
        let _ = TcpStream::connect(self.addr);
    }
}

fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<Engine>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    config: &ServerConfig,
) {
    for stream in listener.incoming() {
        if engine.shutdown_requested() {
            break;
        }
        let Ok(stream) = stream else { continue };
        engine.serve.connections.fetch_add(1, Ordering::Relaxed);
        let engine = Arc::clone(engine);
        let config = config.clone();
        let handle = std::thread::spawn(move || serve_connection(stream, &engine, &config));
        let mut live = connections.lock().unwrap_or_else(|p| p.into_inner());
        // Closed connections' threads have exited; dropping their
        // handles keeps the list as long as the open connections.
        live.retain(|h| !h.is_finished());
        live.push(handle);
    }
}

fn serve_connection(mut stream: TcpStream, engine: &Engine, config: &ServerConfig) {
    if stream.set_read_timeout(Some(config.read_poll)).is_err() {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut discarding = false;
    let mut last_activity = Instant::now();
    loop {
        if engine.shutdown_requested() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => {
                last_activity = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                if !drain_lines(&mut buf, &mut discarding, &mut stream, engine, config) {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() >= config.idle_timeout {
                    let line = engine.frame_error(
                        ErrorCode::Timeout,
                        format!(
                            "connection idle for more than {:?}; closing",
                            config.idle_timeout
                        ),
                    );
                    let _ = write_response(&mut stream, engine, &line);
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Process every complete line in `buf`; returns `false` when the
/// connection should close (write failure). Handles the oversized-line
/// protocol: a buffer that outgrows the bound without a newline is
/// answered once and then discarded up to the next newline.
fn drain_lines(
    buf: &mut Vec<u8>,
    discarding: &mut bool,
    stream: &mut TcpStream,
    engine: &Engine,
    config: &ServerConfig,
) -> bool {
    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
        let line_bytes: Vec<u8> = buf.drain(..=pos).collect();
        let line_bytes = &line_bytes[..line_bytes.len() - 1];
        if std::mem::take(discarding) {
            // The tail of an already-answered oversized line.
            continue;
        }
        engine
            .serve
            .bytes_in
            .fetch_add(line_bytes.len() as u64 + 1, Ordering::Relaxed);
        let line_bytes = match line_bytes.split_last() {
            Some((b'\r', rest)) => rest,
            _ => line_bytes,
        };
        if line_bytes.is_empty() {
            continue; // blank keep-alive lines are not requests
        }
        let response = if line_bytes.len() > config.max_request_bytes {
            engine.frame_error(
                ErrorCode::OversizedRequest,
                format!(
                    "request line is {} bytes; the bound is {}",
                    line_bytes.len(),
                    config.max_request_bytes
                ),
            )
        } else {
            match std::str::from_utf8(line_bytes) {
                Err(_) => {
                    engine.frame_error(ErrorCode::InvalidUtf8, "request line is not valid UTF-8")
                }
                Ok(line) => engine.handle_line(line),
            }
        };
        if !write_response(stream, engine, &response) {
            return false;
        }
    }
    if !*discarding && buf.len() > config.max_request_bytes {
        // No newline yet and already over budget: answer now, swallow
        // the rest of the line when it eventually arrives.
        let response = engine.frame_error(
            ErrorCode::OversizedRequest,
            format!(
                "request line exceeds the {}-byte bound",
                config.max_request_bytes
            ),
        );
        buf.clear();
        *discarding = true;
        if !write_response(stream, engine, &response) {
            return false;
        }
    }
    true
}

fn write_response(stream: &mut TcpStream, engine: &Engine, line: &str) -> bool {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    engine
        .serve
        .bytes_out
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testflow::demo_flow;
    use std::net::Shutdown;

    #[test]
    fn finished_connection_handles_are_reaped() {
        let mut registry = FlowRegistry::new();
        registry.register("demo", demo_flow());
        let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
        for _ in 0..64 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(b"{\"verb\":\"list\"}\n").unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            // The server answers, reads end-of-stream and closes its
            // side: reading to the end waits for that thread to return.
            let mut answer = String::new();
            stream.read_to_string(&mut answer).unwrap();
            assert!(answer.starts_with(r#"{"ok":true"#), "{answer}");
        }
        let live = server
            .connections
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len();
        assert!(live <= 4, "{live} handles kept after 64 closed connections");
        server.shutdown();
        server.join();
    }
}
