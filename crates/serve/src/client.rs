//! A blocking line-protocol client for the flow service.

use crate::protocol::{decode_message, decode_response, encode_line, Response, ServerMessage};
use m3d_flow::FlowRequest;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// What can go wrong on the client side of a call.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server closed the connection before responding.
    Closed,
    /// The server sent a line this client could not decode.
    BadResponse(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::BadResponse(msg) => write!(f, "undecodable response: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a flow service. Requests may be pipelined with
/// [`Client::send`] and collected with [`Client::recv`] (responses
/// carry the request `id` for correlation), or issued one at a time
/// with [`Client::call`]. [`Client::send_raw`] / [`Client::recv_raw`]
/// move undecoded lines — the router relays through them.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a service.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request/response lines are small and latency-bound.
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request without waiting for its response.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, request: &FlowRequest) -> std::io::Result<()> {
        self.writer.write_all(encode_line(request).as_bytes())?;
        self.writer.flush()
    }

    /// Sends one raw line verbatim (plus the newline): the router's
    /// relay path, and how tests and tools probe the server's handling
    /// of malformed input.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        // One write: with `TCP_NODELAY` set, two would be two segments.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next server line undecoded, newline included.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on a clean EOF, [`ClientError::Io`] on a
    /// socket failure.
    pub fn recv_raw(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Closed);
        }
        Ok(line)
    }

    /// Reads the next response line.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on a clean EOF, [`ClientError::Io`] /
    /// [`ClientError::BadResponse`] otherwise.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        decode_response(&self.recv_raw()?).map_err(ClientError::BadResponse)
    }

    /// Reads the next server line as a [`ServerMessage`] — either a v1
    /// `Response` or a v2 stream event. This is the receive path for
    /// sweep streams.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on a clean EOF, [`ClientError::Io`] /
    /// [`ClientError::BadResponse`] otherwise.
    pub fn recv_message(&mut self) -> Result<ServerMessage, ClientError> {
        decode_message(&self.recv_raw()?).map_err(ClientError::BadResponse)
    }

    /// Sends one request and blocks for one response.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`] / [`Client::recv`] failures.
    pub fn call(&mut self, request: &FlowRequest) -> Result<Response, ClientError> {
        self.send(request)?;
        self.recv()
    }

    /// Sends one request and collects its full message stream: for a
    /// v1 request, the single `Response`; for a v2 sweep, everything
    /// through the terminal `done` (or a single rejection).
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`] / [`Client::recv_message`] failures.
    pub fn call_stream(
        &mut self,
        request: &FlowRequest,
    ) -> Result<Vec<ServerMessage>, ClientError> {
        self.send(request)?;
        let mut messages = Vec::new();
        loop {
            let message = self.recv_message()?;
            let terminal = match &message {
                ServerMessage::Response(_) => true,
                ServerMessage::Event(event) => event.is_terminal(),
            };
            messages.push(message);
            if terminal {
                return Ok(messages);
            }
        }
    }
}
