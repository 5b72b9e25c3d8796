//! `gateway_requests` — the paper's scenario. One long-lived
//! `osgi::Framework` holds 16 bundles: an API bundle, a front bundle and
//! 14 service bundles. The host sends requests one at a time (closed
//! loop, one client); each runs through a seed-chosen chain of four
//! services by direct inter-isolate calls, every stage looking the next
//! one up in the service registry and allocating a small reply. Once per
//! repetition a seed-chosen service bundle is killed and reinstalled, so
//! thread migration, exact accounting, termination and class re-loading
//! are all on the path. The only workload with a per-request latency.

use super::{mismatch, Rep, Size, VmMarks, Workload};
use crate::guest;
use crate::rng::SplitMix;
use crate::spans::Recorder;
use ijvm_core::prelude::*;
use ijvm_osgi::{BundleDescriptor, BundleId, Framework};

const SERVICES: usize = 14;

/// Timed repetitions per second of `--seconds`. The count is fixed, not
/// time-bound: `Vm::call_static_as` leaves a finished thread behind per
/// call and the VM scans all threads when idle, so a request costs more
/// the more were served before it. That growth is real behaviour of a
/// long-lived gateway; a fixed count keeps runs comparable.
const REPS_PER_SECOND: f64 = 8.0;

const API_SOURCE: &str = "interface Handler { int handle(int route, int x); }";

const FRONT_SOURCE: &str = r#"
    class Front {
        static BundleContext ctx;
        static int request(int first, int route, int x) {
            Handler h = (Handler) ctx.getService("svc" + first);
            return h.handle(route, x) + first;
        }
    }
    class Activator {
        static void start(BundleContext c) { Front.ctx = c; }
    }
"#;

/// One service bundle: `handle` spins, counts itself, calls the next
/// stage of `route` (4 bits per stage, 0 ends the chain) and folds the
/// stage's result into a freshly allocated reply.
fn service_source(k: usize, spin: i32) -> String {
    format!(
        r#"
        class Impl implements Handler {{
            static int served = 0;
            static BundleContext ctx;
            static String[] names;
            public int handle(int route, int x) {{
                served = served + 1;
                int acc = x;
                for (int i = 0; i < {spin}; i++) acc = acc * 31 + (acc >>> 7) + i;
                acc = acc + served * {weight};
                int down = 0;
                if (route != 0) {{
                    Handler next = (Handler) ctx.getService(names[(route & 15) - 1]);
                    down = next.handle(route >>> 4, acc);
                }}
                int[] reply = new int[4];
                reply[0] = acc;
                reply[1] = down;
                reply[2] = served;
                return reply[0] * 31 + reply[1] + reply[2];
            }}
        }}
        class Activator {{
            static void start(BundleContext c) {{
                Impl.ctx = c;
                Impl.names = new String[{SERVICES}];
                for (int i = 0; i < {SERVICES}; i++) Impl.names[i] = "svc" + i;
                c.registerService("svc{k}", new Impl());
            }}
        }}
        "#,
        weight = weight(k),
    )
}

/// Service `k`'s multiplier of its own request count.
fn weight(k: usize) -> i32 {
    1_000_003 + 2 * k as i32
}

#[derive(Debug, Clone, Copy)]
struct Dims {
    requests: usize,
    spin: i32,
}

impl Dims {
    fn of(size: Size) -> Dims {
        match size {
            // 4 stages x 280 iterations x ~17 instructions: about 20 k guest
            // instructions per request.
            Size::Full => Dims {
                requests: 250,
                spin: 280,
            },
            Size::Tiny => Dims {
                requests: 12,
                spin: 5,
            },
        }
    }
}

/// The host-side oracle: every service's request count (reset when its
/// bundle is reinstalled) and the `handle` arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mirror {
    served: [i32; SERVICES],
    spin: i32,
}

impl Mirror {
    fn handle(&mut self, k: usize, route: i32, x: i32) -> i32 {
        self.served[k] += 1;
        let mut acc = x;
        for i in 0..self.spin {
            acc = acc
                .wrapping_mul(31)
                .wrapping_add((acc as u32 >> 7) as i32)
                .wrapping_add(i);
        }
        acc = acc.wrapping_add(self.served[k].wrapping_mul(weight(k)));
        let down = if route != 0 {
            self.handle((route & 15) as usize - 1, (route as u32 >> 4) as i32, acc)
        } else {
            0
        };
        acc.wrapping_mul(31)
            .wrapping_add(down)
            .wrapping_add(self.served[k])
    }

    fn request(&mut self, first: usize, route: i32, x: i32) -> i32 {
        self.handle(first, route, x).wrapping_add(first as i32)
    }
}

pub struct Gateway {
    fw: Framework,
    front_class: ClassId,
    front_iso: IsolateId,
    services: Vec<(BundleId, BundleDescriptor)>,
    dims: Dims,
    mirror: Mirror,
    inputs: SplitMix,
    last_insns: u64,
}

/// Compiles one bundle against the API bundle's classes.
fn describe(
    rec: &mut Recorder,
    name: &str,
    source: &str,
    activator: Option<&str>,
    imports: &[(BundleId, &guest::Classes)],
) -> BundleDescriptor {
    let imported: guest::Classes = imports.iter().flat_map(|(_, c)| (*c).clone()).collect();
    let ids = imports.iter().map(|(id, _)| *id).collect();
    let span = rec.begin("osgi.BundleDescriptor::from_source");
    let desc = BundleDescriptor::from_source(name, name, source, activator, ids, &imported)
        .unwrap_or_else(|e| panic!("gateway bundle {name} does not compile: {e}"));
    rec.end_ms(span, "compile_ms");
    guest::note_compiled(rec, &desc.classes);
    desc
}

/// Installs and starts a bundle, timing both framework calls.
fn install_and_start(
    rec: &mut Recorder,
    fw: &mut Framework,
    desc: BundleDescriptor,
) -> Result<BundleId, String> {
    let span = rec.begin("osgi.install_bundle");
    let id = fw.install_bundle(desc).map_err(|e| format!("install: {e}"));
    rec.end_ms(span, "install_ms");
    let id = id?;
    let span = rec.begin("osgi.start_bundle");
    let started = fw.start_bundle(id);
    rec.end_ms(span, "start_ms");
    match started {
        Ok(RunOutcome::Idle) => Ok(id),
        Ok(other) => Err(format!("start: activator ended {other:?}")),
        Err(e) => Err(format!("start: {e}")),
    }
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Box<dyn Workload> {
    let dims = Dims::of(size);
    let span = rec.begin("osgi.Framework::new");
    let mut fw = Framework::new(guest::vm_options(rec));
    rec.end_ms(span, "boot_ms");
    rec.add("vms_booted", 1.0);

    let api = describe(rec, "api", API_SOURCE, None, &[]);
    let api_classes = api.classes.clone();
    let api_id = install_and_start(rec, &mut fw, api).expect("api bundle installs");
    let imports = [(api_id, &api_classes)];

    let front = describe(rec, "front", FRONT_SOURCE, Some("Activator"), &imports);
    let front_id = install_and_start(rec, &mut fw, front).expect("front bundle installs");

    let services = (0..SERVICES)
        .map(|k| {
            let name = format!("svc{k}");
            let desc = describe(
                rec,
                &name,
                &service_source(k, dims.spin),
                Some("Activator"),
                &imports,
            );
            let id =
                install_and_start(rec, &mut fw, desc.clone()).expect("service bundle installs");
            (id, desc)
        })
        .collect();

    let (front_loader, front_iso) = {
        let b = fw.bundle(front_id).expect("front bundle");
        (b.loader, b.isolate)
    };
    let front_class = guest::load_class(rec, fw.vm_mut(), front_loader, "front/Front");

    Box::new(Gateway {
        fw,
        front_class,
        front_iso,
        services,
        dims,
        mirror: Mirror {
            served: [0; SERVICES],
            spin: dims.spin,
        },
        inputs: SplitMix::for_workload(seed, "gateway_requests"),
        last_insns: 0,
    })
}

impl Gateway {
    /// Kills service `k`'s bundle and installs and starts a fresh copy:
    /// new loader, new isolate, statics back to their initial values.
    fn replace_service(&mut self, rec: &mut Recorder, k: usize) -> Option<String> {
        let span = rec.begin("kill+reinstall");
        let kill = rec.begin("osgi.kill_bundle");
        let killed = self.fw.kill_bundle(self.services[k].0);
        rec.end_ms(kill, "kill_ms");
        let reinstall = rec.begin("reinstall");
        let installed = install_and_start(rec, &mut self.fw, self.services[k].1.clone());
        rec.end_ms(reinstall, "reinstall_ms");
        rec.end(span);
        self.mirror.served[k] = 0;
        match (killed, installed) {
            (Err(e), _) => Some(format!("kill svc{k}: {e}")),
            (_, Err(e)) => Some(format!("reinstall svc{k}: {e}")),
            (Ok(()), Ok(id)) => {
                self.services[k].0 = id;
                None
            }
        }
    }
}

impl Workload for Gateway {
    fn repetition(&mut self, rec: &mut Recorder) -> Rep {
        let requests = self.dims.requests;
        let kill_at = self.inputs.below(requests as u32) as usize;
        let victim = self.inputs.below(SERVICES as u32) as usize;
        let marks = VmMarks::of(self.fw.vm());

        let mut rep = Rep::default();
        let rep_span = rec.begin("repetition");
        for r in 0..requests {
            if r == kill_at {
                let failure = self.replace_service(rec, victim);
                rep.op(failure);
            }
            let mut stage = || self.inputs.below(SERVICES as u32) as i32;
            let (first, route) = (
                stage(),
                (stage() + 1) | (stage() + 1) << 4 | (stage() + 1) << 8,
            );
            let x = self.inputs.next_i32();

            rec.next_trace();
            let span = rec.begin("request");
            let got = guest::call_int(
                self.fw.vm_mut(),
                self.front_class,
                "request",
                "(III)I",
                &[first, route, x],
                self.front_iso,
            );
            let latency = rec.end(span);
            rec.sample("req_us", latency.as_secs_f64() * 1e6);
            let expected = self.mirror.request(first as usize, route, x);
            rep.op(mismatch("Front.request", got, expected));
        }
        rep.wall = rec.end(rep_span);

        self.last_insns = marks.sample_since(rec, self.fw.vm_mut()).0;
        rep
    }

    fn guest_insns(&self) -> u64 {
        self.last_insns
    }

    fn planned_repetitions(&self, seconds: f64) -> Option<usize> {
        Some((seconds * REPS_PER_SECOND).ceil() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_counts_requests_per_service_and_resets_on_reinstall() {
        let mut m = Mirror {
            served: [0; SERVICES],
            spin: 3,
        };
        // first = 2, then 0, 2 again, 5: svc2 serves twice in one chain.
        let route = 1 | 3 << 4 | 6 << 8;
        let a = m.request(2, route, 99);
        assert_eq!((m.served[0], m.served[2], m.served[5]), (1, 2, 1));
        let b = m.request(2, route, 99);
        assert_ne!(a, b, "request counts feed the reply");
        m.served = [0; SERVICES];
        assert_eq!(
            m.request(2, route, 99),
            a,
            "a reinstalled bundle starts over"
        );
    }
}
