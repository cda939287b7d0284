//! Apache-era per-request CPU cost model.
//!
//! These are the *application* costs; every network-stack cost (packet
//! processing, copies, wakes, interrupts) is charged by `ioat-netsim`
//! itself, which is where the I/OAT benefit lives. The values are typical
//! of Apache 2.0 static serving on this era of hardware (a few thousand
//! requests per second per core).

use ioat_simcore::SimDuration;

/// Wire size of an HTTP request (request line + headers).
pub const REQUEST_WIRE_BYTES: u64 = 300;

/// Per-request CPU costs of the tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataCenterCosts {
    /// Proxy: parse request line + headers, match vhost/ACLs.
    pub proxy_parse: SimDuration,
    /// Proxy: content-cache lookup.
    pub proxy_cache_lookup: SimDuration,
    /// Proxy: serve a cache hit (build response headers, sendfile setup).
    pub proxy_hit_serve: SimDuration,
    /// Proxy: forward a miss to the web tier.
    pub proxy_forward: SimDuration,
    /// Proxy: relay a web-tier response back to the client (and insert it
    /// into the cache).
    pub proxy_relay: SimDuration,
    /// Web server: handle a request (stat, open, headers).
    pub web_serve_base: SimDuration,
    /// Web server: per-byte cost of assembling the response from the page
    /// cache (picoseconds per byte; `sendfile` keeps this small).
    pub web_read_ps_per_byte: u64,
    /// Client: consume/validate one response.
    pub client_process: SimDuration,
}

impl Default for DataCenterCosts {
    fn default() -> Self {
        DataCenterCosts {
            proxy_parse: SimDuration::from_micros(22),
            proxy_cache_lookup: SimDuration::from_micros(4),
            proxy_hit_serve: SimDuration::from_micros(9),
            proxy_forward: SimDuration::from_micros(8),
            proxy_relay: SimDuration::from_micros(12),
            web_serve_base: SimDuration::from_micros(26),
            web_read_ps_per_byte: 150,
            client_process: SimDuration::from_micros(15),
        }
    }
}

impl DataCenterCosts {
    /// Web-tier cost to serve a `size`-byte document.
    pub fn web_serve(&self, size: u64) -> SimDuration {
        self.web_serve_base + SimDuration::from_nanos((size * self.web_read_ps_per_byte) / 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_serve_scales_with_size() {
        let c = DataCenterCosts::default();
        assert!(c.web_serve(100_000) > c.web_serve(1_000));
        assert_eq!(
            c.web_serve(0),
            c.web_serve_base,
            "zero-byte documents cost the base only"
        );
    }

    #[test]
    fn defaults_are_apache_scale() {
        // A proxy hit costs tens of microseconds → a few 10k req/s/core.
        let c = DataCenterCosts::default();
        let hit = c.proxy_parse + c.proxy_cache_lookup + c.proxy_hit_serve;
        assert!(hit < SimDuration::from_micros(100));
        assert!(hit > SimDuration::from_micros(10));
    }
}
