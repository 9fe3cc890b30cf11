//! Sqoop export — HDFS → MySQL (the paper's Table 3, right column).
//!
//! The export job reads the table from HDFS, serializes rows, and ships
//! INSERT batches to a MySQL server on another physical machine. The
//! MySQL side has its own service cost, so the job is bounded by *both*
//! the HDFS read efficiency and the insert rate — which is why the paper
//! measures a smaller (≈11%) improvement here.

use vread_hdfs::client::{DfsRead, DfsReadDone};
use vread_host::cluster::{with_cluster, Cluster, HostIx, VmId};
use vread_net::conn::{add_conn, ConnRecv, ConnSend, Endpoint, Flavor, Side};
use vread_sim::prelude::*;

/// Serialized row size.
pub const ROW_BYTES: u64 = 100;
/// Sqoop-side cycles to serialize one row into an INSERT batch.
const SERIALIZE_ROW_CYCLES: u64 = 2_500;
/// MySQL-side cycles to parse + insert one row.
const MYSQL_ROW_CYCLES: u64 = 15_000;
/// Rows per INSERT batch on the wire.
const BATCH_ROWS: u64 = 2_000;
/// Batches in flight: Sqoop map tasks read, serialize and insert
/// synchronously.
const WINDOW: usize = 1;

/// The MySQL server process on a (physical) database host.
pub struct MysqlServer {
    thread: ThreadId,
}

struct InsertDone {
    conn: ActorId,
    side: Side,
    tag: u64,
}

impl MysqlServer {
    /// Creates a server whose inserts run on `thread`.
    pub fn new(thread: ThreadId) -> Self {
        MysqlServer { thread }
    }
}

impl Actor for MysqlServer {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        let msg = match downcast::<ConnRecv>(msg) {
            Ok(r) => {
                // bytes → rows (batch framing is ROW_BYTES per row)
                let rows = (r.bytes / ROW_BYTES).max(1);
                let me = ctx.me();
                ctx.chain(
                    Stage::cpu(self.thread, rows * MYSQL_ROW_CYCLES, CpuCategory::Mysql),
                    me,
                    InsertDone {
                        conn: r.conn,
                        side: r.side,
                        tag: r.tag,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        if let Ok(d) = downcast::<InsertDone>(msg) {
            ctx.send(
                d.conn,
                ConnSend {
                    dir: d.side,
                    bytes: 64,
                    tag: d.tag,
                    notify: false,
                    span: SpanId::NONE,
                },
            );
        }
    }
}

/// The Sqoop export job actor.
///
/// Metrics: none. Start, acknowledged row bytes, rows and completion are
/// recorded only in the job table, on the job given to
/// [`SqoopExport::new`].
pub struct SqoopExport {
    client: ActorId,
    vm: VmId,
    table: String,
    rows: u64,
    mysql_conn: ActorId,
    read_offset: u64,
    rows_acked: u64,
    batches_inflight: usize,
    pending_read: bool,
    req: u64,
    job: JobHandle,
}

struct SerializeDone {
    rows: u64,
}

impl SqoopExport {
    /// Creates the export job, reporting on `job`; `mysql_conn` is the
    /// connection to the MySQL server (see [`deploy_sqoop_with_job`]).
    pub fn new(
        client: ActorId,
        vm: VmId,
        table: String,
        rows: u64,
        mysql_conn: ActorId,
        job: JobHandle,
    ) -> Self {
        SqoopExport {
            client,
            vm,
            table,
            rows,
            mysql_conn,
            read_offset: 0,
            rows_acked: 0,
            batches_inflight: 0,
            pending_read: false,
            req: 0,
            job,
        }
    }

    fn vcpu(&self, ctx: &Ctx<'_>) -> ThreadId {
        ctx.world
            .ext
            .get::<Cluster>()
            .expect("cluster")
            .vm(self.vm)
            .vcpu
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let total = self.rows * ROW_BYTES;
        if self.rows_acked >= self.rows {
            ctx.job_completed(self.job);
            return;
        }
        if self.pending_read || self.batches_inflight >= WINDOW || self.read_offset >= total {
            return;
        }
        let len = (BATCH_ROWS * ROW_BYTES).min(total - self.read_offset);
        self.pending_read = true;
        self.req += 1;
        let me = ctx.me();
        ctx.send(
            self.client,
            DfsRead {
                req: self.req,
                reply_to: me,
                path: self.table.clone(),
                offset: self.read_offset,
                len,
                // each export batch is fetched by a fresh record reader
                pread: true,
            },
        );
        self.read_offset += len;
    }
}

impl Actor for SqoopExport {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            ctx.job_started(self.job);
            self.pump(ctx);
            return;
        }
        let msg = match downcast::<BindConn>(msg) {
            Ok(b) => {
                self.bind(b.0);
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<DfsReadDone>(msg) {
            Ok(d) => {
                self.pending_read = false;
                let rows = d.bytes / ROW_BYTES;
                let vcpu = self.vcpu(ctx);
                let me = ctx.me();
                ctx.chain(
                    Stage::cpu(vcpu, rows * SERIALIZE_ROW_CYCLES, CpuCategory::MapReduce),
                    me,
                    SerializeDone { rows },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<SerializeDone>(msg) {
            Ok(s) => {
                self.batches_inflight += 1;
                ctx.send(
                    self.mysql_conn,
                    ConnSend {
                        dir: Side::A,
                        bytes: s.rows * ROW_BYTES,
                        tag: s.rows, // tag carries the batch row count
                        notify: false,
                        span: SpanId::NONE,
                    },
                );
                self.pump(ctx);
                return;
            }
            Err(m) => m,
        };
        if let Ok(r) = downcast::<ConnRecv>(msg) {
            // MySQL ack: the tag is the row count of the acked batch
            self.batches_inflight -= 1;
            self.rows_acked += r.tag;
            ctx.job_progress(self.job, r.tag * ROW_BYTES, r.tag);
            self.pump(ctx);
        }
    }
}

/// Deploys a MySQL server on `db_host` and a Sqoop export job in
/// `client_vm` shipping to it, bound to `job`. Returns the export actor
/// (send [`Start`]).
pub fn deploy_sqoop_with_job(
    w: &mut World,
    client_vm: VmId,
    db_host: HostIx,
    dfs_client: ActorId,
    table: String,
    rows: u64,
    job: JobHandle,
) -> ActorId {
    let host_id = w.ext.get::<Cluster>().expect("cluster").hosts[db_host.0].host;
    let thread = w.add_thread(host_id, "mysqld");
    let mysql = w.add_actor("mysql", MysqlServer::new(thread));
    // The export actor is created first so the conn can point at it.
    let export = SqoopExport::new(
        dfs_client,
        client_vm,
        table,
        rows,
        ActorId::from_raw(0),
        job,
    );
    let export_slot = w.add_actor("sqoop", export);
    let conn = with_cluster(w, |cl, w| {
        add_conn(
            w,
            cl,
            Endpoint {
                actor: export_slot,
                flavor: Flavor::Guest(client_vm),
            },
            Endpoint {
                actor: mysql,
                flavor: Flavor::HostUser {
                    thread,
                    cat: CpuCategory::Mysql,
                },
            },
        )
    });
    // patch the conn id in via a bind message
    w.send_now(export_slot, BindConn(conn));
    export_slot
}

/// Internal: late-binds the MySQL connection into the export actor.
pub struct BindConn(pub ActorId);

impl SqoopExport {
    fn bind(&mut self, conn: ActorId) {
        self.mysql_conn = conn;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vread_hdfs::client::{add_client, VanillaPath};
    use vread_hdfs::deploy_hdfs;
    use vread_hdfs::populate::{populate_file, Placement};
    use vread_host::costs::Costs;

    #[test]
    fn export_ships_all_rows() {
        let mut w = World::new(41);
        let mut cl = Cluster::new(Costs::default());
        let h1 = cl.add_host(&mut w, "h1", 4, 2.0);
        let h2 = cl.add_host(&mut w, "h2", 4, 2.0);
        let cvm = cl.add_vm(&mut w, h1, "client");
        let dvm = cl.add_vm(&mut w, h1, "dn");
        w.ext.insert(cl);
        let (_, dns) = deploy_hdfs(&mut w, cvm, &[dvm]);
        let rows = 100_000u64;
        populate_file(&mut w, "/t", rows * ROW_BYTES, &Placement::One(dns[0]));
        let client = add_client(&mut w, cvm, Box::new(VanillaPath::new()));
        let job = w.register_job("sqoop");
        let export = deploy_sqoop_with_job(&mut w, cvm, h2, client, "/t".into(), rows, job);
        w.send_now(export, Start);
        w.run();
        assert!(w.jobs.completed_at(job).is_some());
        assert_eq!(w.jobs.ops(job), rows);
        // MySQL burned insert CPU
        let mysql_cycles: f64 = (0..w.acct.len())
            .map(|t| w.acct.cycles(t, CpuCategory::Mysql))
            .sum();
        assert!(mysql_cycles > 0.0);
    }
}
