//! Field and series writers: CSV for analysis, PGM/PPM images for the
//! Fig. 3-style temperature maps (the reference dumps VisIt files; plain
//! images keep this reproduction dependency-free).

use std::io::{self, Write};
use std::path::Path;
use tea_mesh::Field2D;

/// Capacity of [`write_field_csv`]'s file buffer.
const CSV_BUFFER: usize = 64 * 1024;

/// Writes a field's interior as CSV (`x_index,y_index,value` header plus
/// one row per cell), streamed through a 64 KiB `io::BufWriter`, so the
/// writer's heap is bounded by that buffer, not by the file: `{}` never
/// switches to exponent form, so a line's length has no useful bound (a
/// value below 1e-4 alone takes more than 20 bytes). Indices are
/// formatted by hand, values by `{}`.
pub fn write_field_csv(field: &Field2D, path: &Path) -> io::Result<()> {
    let (nx, ny) = (field.nx(), field.ny());
    let mut out = io::BufWriter::with_capacity(CSV_BUFFER, std::fs::File::create(path)?);
    out.write_all(b"j,k,value\n")?;
    let (mut j_digits, mut k_digits) = ([0u8; 20], [0u8; 20]);
    for k in 0..ny {
        let k_text = decimal(k, &mut k_digits);
        for (j, v) in field.row(k as isize, 0, nx as isize).iter().enumerate() {
            out.write_all(decimal(j, &mut j_digits))?;
            out.write_all(b",")?;
            out.write_all(k_text)?;
            out.write_all(b",")?;
            write!(out, "{v}")?;
            out.write_all(b"\n")?;
        }
    }
    // dropping a BufWriter would discard a failed final write
    out.flush()
}

/// `n` in decimal, written into the tail of `digits`.
fn decimal(mut n: usize, digits: &mut [u8; 20]) -> &[u8] {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    &digits[at..]
}

/// Linear colour ramp from cold blue through white to hot red, like the
/// paper's Fig. 3 rendering.
fn heat_color(t: f64) -> (u8, u8, u8) {
    let t = t.clamp(0.0, 1.0);
    if t < 0.5 {
        let s = t * 2.0;
        ((s * 255.0) as u8, (s * 255.0) as u8, 255)
    } else {
        let s = (t - 0.5) * 2.0;
        (255, ((1.0 - s) * 255.0) as u8, ((1.0 - s) * 255.0) as u8)
    }
}

/// Writes the field as a binary PPM heat map. Values are log-scaled when
/// the dynamic range exceeds 10³ (the crooked pipe spans many decades),
/// linearly otherwise. Row 0 is drawn at the bottom, as in the paper.
pub fn write_field_ppm(field: &Field2D, path: &Path) -> io::Result<()> {
    let (nx, ny) = (field.nx(), field.ny());
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, _, v) in field.iter_interior() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let log_scale = lo > 0.0 && hi / lo.max(f64::MIN_POSITIVE) > 1e3;
    let (lo_t, hi_t) = if log_scale {
        (lo.ln(), hi.ln())
    } else {
        (lo, hi)
    };
    let span = (hi_t - lo_t).max(f64::MIN_POSITIVE);

    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    write!(w, "P6\n{nx} {ny}\n255\n")?;
    for k in (0..ny as isize).rev() {
        for j in 0..nx as isize {
            let v = field.at(j, k);
            let t = if log_scale {
                (v.max(f64::MIN_POSITIVE).ln() - lo_t) / span
            } else {
                (v - lo_t) / span
            };
            let (r, g, b) = heat_color(t);
            w.write_all(&[r, g, b])?;
        }
    }
    w.flush()
}

/// Writes a legacy-VTK structured-points file of the field (the
/// reproduction's analogue of the reference's VisIt dumps; loadable in
/// ParaView/VisIt).
pub fn write_field_vtk(field: &Field2D, path: &Path, name: &str) -> io::Result<()> {
    let (nx, ny) = (field.nx(), field.ny());
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "TeaLeaf-rs field dump")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET STRUCTURED_POINTS")?;
    writeln!(w, "DIMENSIONS {nx} {ny} 1")?;
    writeln!(w, "ORIGIN 0 0 0")?;
    writeln!(w, "SPACING 1 1 1")?;
    writeln!(w, "POINT_DATA {}", nx * ny)?;
    writeln!(w, "SCALARS {name} double 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    for k in 0..ny as isize {
        for j in 0..nx as isize {
            writeln!(w, "{}", field.at(j, k))?;
        }
    }
    w.flush()
}

/// Writes labelled `(x, series...)` rows as CSV — the format every
/// figure binary emits.
pub fn write_series_csv(
    path: &Path,
    x_label: &str,
    xs: &[f64],
    series: &[(String, Vec<f64>)],
) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    write!(w, "{x_label}")?;
    for (name, _) in series {
        write!(w, ",{name}")?;
    }
    writeln!(w)?;
    for (i, x) in xs.iter().enumerate() {
        write!(w, "{x}")?;
        for (_, ys) in series {
            write!(w, ",{}", ys.get(i).copied().unwrap_or(f64::NAN))?;
        }
        writeln!(w)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join("tea_output_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut f = Field2D::new(3, 2, 0);
        f.set(1, 1, 5.5);
        let p = dir.join("f.csv");
        write_field_csv(&f, &p).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 6);
        assert_eq!(lines[0], "j,k,value");
        assert!(lines.contains(&"1,1,5.5"));
    }

    #[test]
    fn csv_writer_matches_the_per_cell_oracle() {
        // the writer it replaced: one `writeln!` per cell
        let per_cell = |field: &Field2D| {
            let mut w = Vec::new();
            writeln!(w, "j,k,value").unwrap();
            for k in 0..field.ny() as isize {
                for j in 0..field.nx() as isize {
                    writeln!(w, "{j},{k},{}", field.at(j, k)).unwrap();
                }
            }
            w
        };
        let values = [
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 3.0,
            -5e-324,
            1e300,
            -1e-300,
            42.0,
            -7.0,
            1.0 / 3.0,
            f64::MAX,
            0.1 + 0.2,
            123456789.0,
        ];
        let dir = std::env::temp_dir().join("tea_output_test");
        std::fs::create_dir_all(&dir).unwrap();
        // wide enough for two- and three-digit indices, tall enough to
        // cross the write buffer's boundary, haloed so the writer must
        // skip ghosts
        let (nx, ny) = (113, 41);
        let mut f = Field2D::filled(nx, ny, 2, 9.5);
        for k in 0..ny as isize {
            for j in 0..nx as isize {
                f.set(j, k, values[(j * 7 + k) as usize % values.len()]);
            }
        }
        let p = dir.join("oracle.csv");
        write_field_csv(&f, &p).unwrap();
        let written = std::fs::read(&p).unwrap();
        assert!(written.len() > 2 * CSV_BUFFER, "{} B", written.len());
        assert_eq!(written, per_cell(&f));
    }

    #[test]
    fn ppm_header_and_size() {
        let dir = std::env::temp_dir().join("tea_output_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut f = Field2D::new(4, 3, 0);
        for k in 0..3isize {
            for j in 0..4isize {
                f.set(j, k, (j + k) as f64 + 0.1);
            }
        }
        let p = dir.join("f.ppm");
        write_field_ppm(&f, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        assert!(bytes.starts_with(b"P6\n4 3\n255\n"));
        assert_eq!(bytes.len(), 11 + 4 * 3 * 3);
    }

    #[test]
    fn heat_color_endpoints() {
        assert_eq!(heat_color(0.0), (0, 0, 255));
        assert_eq!(heat_color(1.0), (255, 0, 0));
        let (r, g, b) = heat_color(0.5);
        assert!(
            r > 250 && g > 250 && b > 250,
            "midpoint ~white: {r},{g},{b}"
        );
    }

    #[test]
    fn vtk_header_and_cell_count() {
        let dir = std::env::temp_dir().join("tea_output_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut f = Field2D::new(3, 2, 1);
        f.set(0, 0, 1.25);
        let p = dir.join("f.vtk");
        write_field_vtk(&f, &p, "temperature").unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.starts_with("# vtk DataFile Version 3.0"));
        assert!(text.contains("DIMENSIONS 3 2 1"));
        assert!(text.contains("SCALARS temperature double 1"));
        // 11 header lines... count data lines instead
        let data_lines = text
            .lines()
            .skip_while(|l| !l.starts_with("LOOKUP_TABLE"))
            .skip(1)
            .count();
        assert_eq!(data_lines, 6);
        assert!(text.contains("1.25"));
    }

    #[test]
    fn series_csv_layout() {
        let dir = std::env::temp_dir().join("tea_output_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("s.csv");
        write_series_csv(
            &p,
            "nodes",
            &[1.0, 2.0],
            &[
                ("CG - 1".into(), vec![10.0, 6.0]),
                ("PPCG - 16".into(), vec![9.0, 4.0]),
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), "nodes,CG - 1,PPCG - 16");
        assert_eq!(lines.next().unwrap(), "1,10,9");
        assert_eq!(lines.next().unwrap(), "2,6,4");
    }
}
