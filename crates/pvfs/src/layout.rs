//! File striping.
//!
//! PVFS "achieves high performance by striping files across a set of I/O
//! server nodes allowing parallel accesses to the data" (§3.2). The
//! default stripe size is 64 KB, round-robin across servers.

/// PVFS 1.x default stripe size.
pub const DEFAULT_STRIPE: u64 = 64 * 1024;

/// A file's striping parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Stripe unit in bytes.
    pub stripe_size: u64,
    /// Number of I/O servers the file spans.
    pub servers: usize,
    /// First server for stripe 0 (files start on different servers to
    /// spread load).
    pub base_server: usize,
}

/// One contiguous piece of a request, mapped to a single server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripePiece {
    /// The I/O server holding the piece.
    pub server: usize,
    /// Offset within the file.
    pub file_offset: u64,
    /// Piece length in bytes.
    pub len: u64,
}

impl Layout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if `stripe_size` is zero or `servers` is zero.
    pub fn new(stripe_size: u64, servers: usize, base_server: usize) -> Self {
        assert!(stripe_size > 0, "stripe size must be positive");
        assert!(servers > 0, "need at least one server");
        Layout {
            stripe_size,
            servers,
            base_server: base_server % servers,
        }
    }

    /// The default PVFS layout over `servers` servers.
    pub fn default_over(servers: usize) -> Self {
        Layout::new(DEFAULT_STRIPE, servers, 0)
    }

    /// The server holding the stripe that contains `file_offset`.
    pub fn server_of(&self, file_offset: u64) -> usize {
        let stripe_index = (file_offset / self.stripe_size) as usize;
        (self.base_server + stripe_index) % self.servers
    }

    /// Splits `[offset, offset + len)` into per-stripe pieces in file
    /// order.
    pub fn pieces(&self, offset: u64, len: u64) -> Vec<StripePiece> {
        let mut out = Vec::new();
        let mut cursor = offset;
        let end = offset + len;
        while cursor < end {
            let stripe_end = (cursor / self.stripe_size + 1) * self.stripe_size;
            let piece_end = stripe_end.min(end);
            out.push(StripePiece {
                server: self.server_of(cursor),
                file_offset: cursor,
                len: piece_end - cursor,
            });
            cursor = piece_end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pieces_tile_the_request() {
        let l = Layout::new(64 * 1024, 4, 0);
        let pieces = l.pieces(10_000, 1_000_000);
        let total: u64 = pieces.iter().map(|p| p.len).sum();
        assert_eq!(total, 1_000_000);
        let mut cursor = 10_000;
        for p in &pieces {
            assert_eq!(p.file_offset, cursor);
            assert!(p.len <= 64 * 1024);
            cursor += p.len;
        }
    }

    #[test]
    fn round_robin_across_servers() {
        let l = Layout::new(1024, 3, 0);
        assert_eq!(l.server_of(0), 0);
        assert_eq!(l.server_of(1024), 1);
        assert_eq!(l.server_of(2048), 2);
        assert_eq!(l.server_of(3072), 0);
        // Base-server rotation shifts everything.
        let l2 = Layout::new(1024, 3, 2);
        assert_eq!(l2.server_of(0), 2);
        assert_eq!(l2.server_of(1024), 0);
    }

    #[test]
    fn aligned_request_spreads_evenly() {
        let l = Layout::default_over(4);
        // 2 MB per server, as the paper's pvfs-test does with N=4.
        let mut per_server = [0u64; 4];
        for p in l.pieces(0, 4 * 2 * 1024 * 1024) {
            per_server[p.server] += p.len;
        }
        assert_eq!(per_server, [2 * 1024 * 1024; 4]);
    }

    #[test]
    fn unaligned_first_piece_is_short() {
        let l = Layout::new(1000, 2, 0);
        let pieces = l.pieces(900, 300);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].len, 100);
        assert_eq!(pieces[0].server, 0);
        assert_eq!(pieces[1].len, 200);
        assert_eq!(pieces[1].server, 1);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        Layout::new(1024, 0, 0);
    }
}
