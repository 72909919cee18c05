//! The conventional centralized SNMP baseline (paper §6, first
//! paragraph): "a management station communicates to the SNMP agents
//! via a number of fine-grained get and set operations for MIB
//! parameters. This centralized micro-management approach for large
//! networks tends to generate heavy traffic between the management
//! station and network devices and excessive computational overhead on
//! the management station."
//!
//! The station is a server host whose application traffic (`Snmp`
//! class) rides the same fabric the agents do, so both paradigms are
//! metered identically.

use std::collections::BTreeMap;

use naplet_core::clock::Millis;
use naplet_core::credential::{Credential, SigningKey};
use naplet_core::error::{NapletError, Result};
use naplet_core::id::NapletId;
use naplet_core::value::Value;
use naplet_server::{OpsPage, OpsRead, SimRuntime, StatusReport, Wire};
use naplet_snmp::{Oid, SnmpOp, SnmpRequest, SnmpResponse};

use crate::service::SharedDevice;

/// Dispatch tag for SNMP application traffic.
pub const SNMP_TAG: &str = "snmp";

/// Install the device-side endpoint: the server answers `snmp`-tagged
/// application requests from its local device agent (the SNMP daemon).
pub fn install_snmp_endpoint(server: &mut naplet_server::NapletServer, device: SharedDevice) {
    server.set_app_handler(move |tag, body| {
        if tag != SNMP_TAG {
            return Err(NapletError::Service(format!("unknown app tag `{tag}`")));
        }
        let request: SnmpRequest = naplet_core::codec::from_bytes(body)?;
        let response = device.lock().agent_mut().handle(&request);
        naplet_core::codec::to_bytes(&response)
    });
}

/// The status reports among `pages`, sorted by host (so the same
/// cluster polled twice encodes byte-identically).
pub fn sorted_reports(pages: impl IntoIterator<Item = OpsPage>) -> Vec<StatusReport> {
    let reports = pages.into_iter().filter_map(|page| match page {
        OpsPage::Status(report) => Some(report),
        _ => None,
    });
    let mut reports: Vec<StatusReport> = reports.collect();
    reports.sort_by(|a, b| a.host.cmp(&b.host));
    reports
}

/// Per-device polling results: OID → value bindings in request order.
pub type PollResults = BTreeMap<String, Vec<(Oid, Value)>>;

/// The centralized management station.
pub struct CentralizedManager {
    /// Server host the station runs at.
    pub station: String,
    /// Community string used for queries.
    pub community: String,
    next_token: u64,
    /// Request PDUs issued so far — the "computational overhead on the
    /// management station" proxy (one round of work per PDU).
    pub station_ops: u64,
}

impl CentralizedManager {
    /// Station at `host`.
    pub fn new(host: &str) -> CentralizedManager {
        CentralizedManager {
            station: host.to_string(),
            community: "public".into(),
            next_token: 0,
            station_ops: 0,
        }
    }

    fn send(&mut self, rt: &mut SimRuntime, device: &str, op: SnmpOp) -> Result<u64> {
        self.next_token += 1;
        self.station_ops += 1;
        let token = self.next_token;
        let request = SnmpRequest {
            community: self.community.clone(),
            op,
        };
        rt.station_send(
            &self.station.clone(),
            device,
            Wire::AppRequest {
                token,
                reply_to: self.station.clone(),
                tag: SNMP_TAG.into(),
                body: naplet_core::codec::to_bytes(&request)?,
            },
        )?;
        Ok(token)
    }

    fn drain_replies(&self, rt: &mut SimRuntime) -> Result<BTreeMap<u64, SnmpResponse>> {
        let server = rt
            .server_mut(&self.station)
            .ok_or_else(|| NapletError::NotFound(format!("no server at `{}`", self.station)))?;
        let replies = std::mem::take(&mut server.app_replies);
        let mut out = BTreeMap::new();
        for (token, _tag, body) in replies {
            let decoded: std::result::Result<Vec<u8>, String> =
                naplet_core::codec::from_bytes(&body)?;
            let payload = decoded.map_err(NapletError::Service)?;
            let response: SnmpResponse = naplet_core::codec::from_bytes(&payload)?;
            out.insert(token, response);
        }
        Ok(out)
    }

    /// Poll every device for every OID.
    ///
    /// `fine_grained` reproduces the paper's micro-management: **one
    /// request PDU per variable per device**. When false, the station
    /// batches all OIDs of a device into a single Get (the kindest
    /// possible client/server baseline).
    pub fn poll(
        &mut self,
        rt: &mut SimRuntime,
        devices: &[String],
        oids: &[Oid],
        fine_grained: bool,
    ) -> Result<PollResults> {
        let mut tokens: BTreeMap<u64, String> = BTreeMap::new();
        for device in devices {
            if fine_grained {
                for oid in oids {
                    let t = self.send(rt, device, SnmpOp::Get(vec![oid.instance_or_self()]))?;
                    tokens.insert(t, device.clone());
                }
            } else {
                let all: Vec<Oid> = oids.iter().map(Oid::instance_or_self).collect();
                let t = self.send(rt, device, SnmpOp::Get(all))?;
                tokens.insert(t, device.clone());
            }
        }
        rt.run_to_quiescence(10_000_000);
        let replies = self.drain_replies(rt)?;
        let mut results: PollResults = BTreeMap::new();
        for (token, device) in tokens {
            let Some(resp) = replies.get(&token) else {
                return Err(NapletError::Communication(format!(
                    "no reply for token {token} from {device}"
                )));
            };
            results
                .entry(device)
                .or_default()
                .extend(resp.bindings.iter().cloned());
        }
        Ok(results)
    }

    /// Poll every target server's ops-plane status over the wire-level
    /// ops protocol. The privileged `OpsRequest` frames carry a
    /// credential issued under `key`; a server whose security policy
    /// denies `PrivilegedService("status")` answers with no report and
    /// is omitted from the result. Reports come back sorted by host,
    /// so the same world polled twice encodes byte-identically.
    pub fn status_poll(
        &mut self,
        rt: &mut SimRuntime,
        targets: &[String],
        key: &SigningKey,
    ) -> Result<Vec<StatusReport>> {
        let id = NapletId::new(&key.principal, &self.station, Millis(1))?;
        let credential = Credential::issue(key, id, "ops-plane", vec![]);
        for target in targets {
            self.next_token += 1;
            self.station_ops += 1;
            rt.station_send(
                &self.station.clone(),
                target,
                Wire::OpsRequest {
                    token: self.next_token,
                    reply_to: self.station.clone(),
                    credential: credential.clone(),
                    read: OpsRead::Status,
                },
            )?;
        }
        rt.run_to_quiescence(10_000_000);
        let server = rt
            .server_mut(&self.station)
            .ok_or_else(|| NapletError::NotFound(format!("no server at `{}`", self.station)))?;
        let replies = std::mem::take(&mut server.ops_replies);
        let pages = replies.into_iter().filter_map(|(_, page)| page);
        Ok(sorted_reports(pages))
    }

    /// Walk a subtree on every device with per-variable get-next
    /// round trips (the classic table retrieval cost).
    pub fn walk(
        &mut self,
        rt: &mut SimRuntime,
        devices: &[String],
        root: &Oid,
    ) -> Result<PollResults> {
        let mut results: PollResults = BTreeMap::new();
        for device in devices {
            let mut cursor = root.clone();
            loop {
                let t = self.send(rt, device, SnmpOp::GetNext(cursor.clone()))?;
                rt.run_to_quiescence(10_000_000);
                let replies = self.drain_replies(rt)?;
                let Some(resp) = replies.get(&t) else {
                    return Err(NapletError::Communication("walk reply lost".into()));
                };
                if !resp.is_ok() {
                    break; // end of MIB
                }
                let (oid, value) = resp.bindings[0].clone();
                if !root.is_prefix_of(&oid) {
                    break; // left the subtree
                }
                cursor = oid.clone();
                results
                    .entry(device.clone())
                    .or_default()
                    .push((oid, value));
            }
        }
        Ok(results)
    }
}

/// `oid.instance()` for bare object ids, identity for instances that
/// already end in an index. Heuristic: treat OIDs ending in `0` or
/// deeper than 9 arcs as instances already.
trait InstanceOrSelf {
    fn instance_or_self(&self) -> Oid;
}

impl InstanceOrSelf for Oid {
    fn instance_or_self(&self) -> Oid {
        match self.parts().last() {
            Some(0) => self.clone(),
            _ if self.len() > 9 => self.clone(),
            _ => self.instance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naplet_snmp::oids;

    #[test]
    fn instance_heuristic() {
        let bare: Oid = "1.3.6.1.2.1.1.5".parse().unwrap();
        assert_eq!(bare.instance_or_self().to_string(), "1.3.6.1.2.1.1.5.0");
        let inst: Oid = "1.3.6.1.2.1.1.5.0".parse().unwrap();
        assert_eq!(inst.instance_or_self(), inst);
        // table cells are already instances (deep OIDs)
        let cell = oids::if_entry().extend(&[oids::IF_IN_OCTETS, 3]);
        assert_eq!(cell.instance_or_self(), cell);
    }
}
