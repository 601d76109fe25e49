//! Gathering decomposed fields onto a root rank.
//!
//! Used for diagnostics and figure output: each rank ships its interior
//! to rank 0, which assembles the global field. The reference TeaLeaf
//! does the same for its VisIt dumps.

use crate::wire::WireScalar;
use crate::Communicator;
use tea_mesh::{Decomposition2D, Field2};

/// Gather messages tag the element width like halo messages do, so a
/// root expecting one precision rejects a rank shipping another.
fn gather_tag(elem_bytes: usize) -> u64 {
    0x6A77 | ((elem_bytes as u64) << 36)
}

/// Gathers the interiors of every rank's `field` into a single global
/// field (halo 0) on rank 0, at the field's native precision. Other
/// ranks return `None`. Only the interior is read, so `field` may carry
/// any halo.
///
/// Must be called collectively. The field extents must match each rank's
/// subdomain in `decomp`.
pub fn gather_to_root<S: WireScalar, C: Communicator + ?Sized>(
    field: &Field2<S>,
    decomp: &Decomposition2D,
    comm: &C,
) -> Option<Field2<S>> {
    let sub = decomp.subdomain(comm.rank());
    assert_eq!(field.nx(), sub.nx, "field does not match subdomain");
    assert_eq!(field.ny(), sub.ny, "field does not match subdomain");

    let (gnx, gny) = decomp.global_cells();
    if comm.rank() != 0 {
        let buf = field.pack_rect(0, field.nx() as isize, 0, field.ny() as isize);
        comm.send(0, gather_tag(S::BYTES), S::into_payload(buf));
        return None;
    }

    let mut global = Field2::<S>::new(gnx, gny, 0);
    // own interior, row by row, straight out of the (possibly haloed) field
    let (ox, oy) = (sub.offset.0 as isize, sub.offset.1 as isize);
    for k in 0..sub.ny as isize {
        global
            .row_mut(oy + k, ox, ox + sub.nx as isize)
            .copy_from_slice(field.row(k, 0, sub.nx as isize));
    }
    // everyone else in rank order
    for r in 1..comm.size() {
        let s = decomp.subdomain(r);
        let buf: Vec<S> = comm
            .recv(r, gather_tag(S::BYTES))
            .try_into_vec()
            .unwrap_or_else(|err| panic!("gather decode failed: {err}"));
        assert_eq!(buf.len(), s.nx * s.ny, "gather payload size mismatch");
        let (x, y) = (s.offset.0 as isize, s.offset.1 as isize);
        global.unpack_rect(&buf, x, x + s.nx as isize, y, y + s.ny as isize);
    }
    Some(global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_threaded, SerialComm};
    use tea_mesh::{Extent2D, Field2D, Field2F, Mesh2D};

    #[test]
    fn gather_reassembles_global_field() {
        let d = Decomposition2D::with_grid(10, 6, 3, 2);
        let results = run_threaded(6, |comm| {
            let mesh = Mesh2D::new(&d, comm.rank(), Extent2D::unit());
            let mut f = Field2D::new(mesh.nx(), mesh.ny(), 0);
            let (ox, oy) = mesh.subdomain().offset;
            for k in 0..mesh.ny() as isize {
                for j in 0..mesh.nx() as isize {
                    f.set(j, k, ((ox as isize + j) * 37 + (oy as isize + k)) as f64);
                }
            }
            gather_to_root(&f, &d, comm)
        });
        let global = results[0].as_ref().expect("rank 0 gets the field");
        assert!(results[1..].iter().all(|r| r.is_none()));
        for k in 0..6isize {
            for j in 0..10isize {
                assert_eq!(global.at(j, k), (j * 37 + k) as f64);
            }
        }
    }

    #[test]
    fn f32_gather_moves_half_width_payloads() {
        let d = Decomposition2D::with_grid(8, 8, 2, 1);
        let results = run_threaded(2, |comm| {
            let mesh = Mesh2D::new(&d, comm.rank(), Extent2D::unit());
            let mut f = Field2F::new(mesh.nx(), mesh.ny(), 0);
            let (ox, _) = mesh.subdomain().offset;
            for k in 0..mesh.ny() as isize {
                for j in 0..mesh.nx() as isize {
                    f.set(j, k, (ox as isize + j + k) as f32);
                }
            }
            let g = gather_to_root(&f, &d, comm);
            (g, comm.stats().snapshot())
        });
        let global = results[0].0.as_ref().expect("rank 0 gets the field");
        for k in 0..8isize {
            for j in 0..8isize {
                assert_eq!(global.at(j, k), (j + k) as f32);
            }
        }
        // rank 1 shipped its 4x8 interior as f32: 32 elements, 128 bytes
        let s1 = results[1].1;
        assert_eq!(s1.elems_sent_f32, 32);
        assert_eq!(s1.elems_sent_f64, 0);
        assert_eq!(s1.bytes_sent(), 128);
    }

    #[test]
    fn serial_gather_is_a_copy() {
        let d = Decomposition2D::with_grid(4, 4, 1, 1);
        let comm = SerialComm::new();
        let mut f = Field2D::new(4, 4, 2);
        f.set(1, 1, 42.0);
        let g = gather_to_root(&f, &d, &comm).unwrap();
        assert_eq!(g.at(1, 1), 42.0);
        assert_eq!(g.halo(), 0);
    }
}
