//! System configuration: processes, shard placement, and the client-to-client
//! communication switch.
//!
//! The SNOW results are parameterized by exactly these knobs (Fig. 1(a)):
//! how many readers and writers there are, how many servers/objects, and
//! whether clients may exchange messages directly (C2C).

use crate::ids::{ClientId, ClientRole, ObjectId, ServerId};

/// Static description of a transaction processing system instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of storage servers (shards).
    pub num_servers: u32,
    /// Number of objects.  Objects are placed round-robin over servers; with
    /// `num_objects == num_servers` this is exactly the paper's
    /// one-object-per-server model.
    pub num_objects: u32,
    /// Number of read clients.
    pub num_readers: u32,
    /// Number of write clients.
    pub num_writers: u32,
    /// Whether client-to-client communication is permitted.
    pub c2c_allowed: bool,
}

impl SystemConfig {
    /// A multi-writer single-reader system (the setting of Algorithm A).
    pub fn mwsr(num_servers: u32, num_writers: u32, c2c_allowed: bool) -> Self {
        SystemConfig {
            num_servers,
            num_objects: num_servers,
            num_readers: 1,
            num_writers,
            c2c_allowed,
        }
    }

    /// A multi-writer multi-reader system (the setting of Algorithms B and C).
    pub fn mwmr(num_servers: u32, num_writers: u32, num_readers: u32) -> Self {
        SystemConfig {
            num_servers,
            num_objects: num_servers,
            num_readers,
            num_writers,
            c2c_allowed: false,
        }
    }

    /// Total number of clients.
    pub fn num_clients(&self) -> u32 {
        self.num_readers + self.num_writers
    }

    /// Iterator over all server ids.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> {
        (0..self.num_servers).map(ServerId)
    }

    /// Iterator over all object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.num_objects).map(ObjectId)
    }

    /// Reader client ids: `0 .. num_readers`.
    pub fn readers(&self) -> impl Iterator<Item = ClientId> {
        (0..self.num_readers).map(ClientId)
    }

    /// Writer client ids: `num_readers .. num_readers + num_writers`.
    pub fn writers(&self) -> impl Iterator<Item = ClientId> + '_ {
        (self.num_readers..self.num_readers + self.num_writers).map(ClientId)
    }

    /// The role of a client id under this configuration, or `None` if the id
    /// is out of range.
    pub fn role_of(&self, client: ClientId) -> Option<ClientRole> {
        if client.0 < self.num_readers {
            Some(ClientRole::Reader)
        } else if client.0 < self.num_readers + self.num_writers {
            Some(ClientRole::Writer)
        } else {
            None
        }
    }

    /// The server hosting `object` (round-robin placement).
    pub fn server_for(&self, object: ObjectId) -> ServerId {
        ServerId(object.0 % self.num_servers)
    }

    /// The objects hosted by `server` under round-robin placement.
    pub fn objects_on(&self, server: ServerId) -> Vec<ObjectId> {
        (0..self.num_objects)
            .filter(|o| o % self.num_servers == server.0)
            .map(ObjectId)
            .collect()
    }

    /// True if the configuration is MWSR (exactly one reader).
    pub fn is_mwsr(&self) -> bool {
        self.num_readers == 1
    }

    /// Basic sanity check: at least one server, one object, one client.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_servers == 0 {
            return Err("at least one server is required".into());
        }
        if self.num_objects == 0 {
            return Err("at least one object is required".into());
        }
        if self.num_clients() == 0 {
            return Err("at least one client is required".into());
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::mwmr(2, 1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_settings() {
        let mwsr = SystemConfig::mwsr(4, 3, true);
        assert!(mwsr.is_mwsr());
        assert_eq!(mwsr.num_writers, 3);

        let mwmr = SystemConfig::mwmr(8, 4, 4);
        assert!(!mwmr.is_mwsr());
        assert_eq!(mwmr.num_clients(), 8);
    }

    #[test]
    fn roles_partition_clients() {
        let cfg = SystemConfig::mwmr(2, 2, 3);
        assert_eq!(cfg.role_of(ClientId(0)), Some(ClientRole::Reader));
        assert_eq!(cfg.role_of(ClientId(2)), Some(ClientRole::Reader));
        assert_eq!(cfg.role_of(ClientId(3)), Some(ClientRole::Writer));
        assert_eq!(cfg.role_of(ClientId(4)), Some(ClientRole::Writer));
        assert_eq!(cfg.role_of(ClientId(5)), None);
        assert_eq!(cfg.readers().count(), 3);
        assert_eq!(cfg.writers().count(), 2);
    }

    #[test]
    fn placement_is_round_robin_and_consistent() {
        let cfg = SystemConfig {
            num_servers: 3,
            num_objects: 7,
            num_readers: 1,
            num_writers: 1,
            c2c_allowed: false,
        };
        for o in cfg.objects() {
            let s = cfg.server_for(o);
            assert!(cfg.objects_on(s).contains(&o));
        }
        let total: usize = cfg.servers().map(|s| cfg.objects_on(s).len()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        assert!(SystemConfig::default().validate().is_ok());
        let bad = SystemConfig {
            num_servers: 0,
            num_objects: 1,
            num_readers: 1,
            num_writers: 0,
            c2c_allowed: false,
        };
        assert!(bad.validate().is_err());
        let no_obj = SystemConfig {
            num_servers: 1,
            num_objects: 0,
            num_readers: 1,
            num_writers: 0,
            c2c_allowed: false,
        };
        assert!(no_obj.validate().is_err());
        let no_clients = SystemConfig {
            num_servers: 1,
            num_objects: 1,
            num_readers: 0,
            num_writers: 0,
            c2c_allowed: false,
        };
        assert!(no_clients.validate().is_err());
    }
}
