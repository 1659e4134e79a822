/* The integration kernels of kernels.py, in C.
 *
 * memchua_rk4_trajectory and memchua_dopri_trajectory mirror
 * _rk4_trajectory and _dopri_trajectory: the same operations in the same
 * order, the same status and event codes, and the same abort, shadow and
 * divergence rules. Built with -ffp-contract=off (no fused multiply-add)
 * and without -ffast-math, every double they compute is the one the
 * Python kernels compute, so their outputs are bit-identical, up to the
 * payload of a NaN, which IEEE 754 leaves open.
 *
 * The circuit's vector field is written once, as the macro FIELD over
 * double and v2d operands, and serves every stage of both kernels;
 * push_event, push_crossing and record mirror kernels.py's _push_event,
 * _push_crossing and _record.
 *
 * memchua_dopri_trajectory steps a state vector: (v1, v2, iL) is one
 * 4-wide State, as is each stage's slope, so each Dormand-Prince stage is
 * written once for all three components, each lane rounding as its scalar
 * operation does. The Python kernels spell them out.
 *
 * A kernel call arrives as one struct, Rk4Call or DopriCall, whose fields
 * are those of the named call of the same name in kernels.py, in its
 * order: an int64_t for each integer field (kernels._C_INTS), a double
 * for every other.
 *
 * memchua_rk4_trajectory runs one or two calls of _rk4_trajectory at once,
 * each in a lane of 2-wide vectors (the GCC and Clang vector extension):
 * the references of both lanes form one vector and their shadows another.
 * Every argument of a call is its lane's own, its step size included, so
 * any two calls can share a kernel call.
 * An RK4 step is a chain of dependent operations, so the kernel is bound
 * by their latency. Bare steps on a 2-CPU Intel Xeon VM (gcc 12, -O2):
 * one scalar chain took about 110 ns per step, two interleaved about
 * 115 ns and four about 185 ns, while two vector chains, four
 * trajectories, took about 115 ns. Vector +, -, * and / round each lane
 * as the scalar operators do, and a lane's bookkeeping (events, record,
 * renormalization) stays scalar, so a lane's results are those of a run
 * of its own.
 *
 * The Python wrappers in kernels.py allocate the event buffers and the
 * fixed-step record, compute every size, and check that each integer
 * field fits in 64 bits and that the stride and the renormalization
 * interval are at least 1. The adaptive kernel grows its own record
 * buffer; the wrapper copies it out and frees it with memchua_free.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum {
    STATUS_OK = 0,
    STATUS_SOA_ABORT = 1,
    STATUS_DIVERGED = 2,
    STATUS_STEP_UNDERFLOW = 3,
    STATUS_STEP_LIMIT = 4,
    STATUS_SHADOW_FAIL = 5,
    STATUS_ROW_LIMIT = 6
};

enum { KIND_SOA_LOW = 0, KIND_SOA_HIGH = 1, KIND_DIVERGED = 2 };

/* kernels.py's Rk4Call and DopriCall, field for field */
typedef struct {
    double p1, p2, p3, p4, p5, g, gn, c1, c2, l, v1, v2, il, dt;
    int64_t n_steps, rec_start, stride;
    double v_min, v_max, v_div, i_div;
    int64_t abort_on_soa, shadow, renorm_every, transient_steps;
    double d0;
} Rk4Call;

typedef struct {
    double p1, p2, p3, p4, p5, g, gn, c1, c2, l, v1, v2, il, t_end,
        t_transient;
    int64_t stride;
    double abs_tol, rel_tol, h0, h_max, v_min, v_max, v_div, i_div;
    int64_t abort_on_soa, max_steps, max_rows;
    double h_min;
} DopriCall;

/* two lanes of doubles (GCC and Clang vector extension): +, -, * and / act
 * on each lane as the scalar operator does */
typedef double v2d __attribute__((vector_size(16)));

typedef struct {
    v2d p1, p2, p3, p4, p5, g, gn, c1, c2, l;
} Circuit2;

/* The DOPRI5 state (v1, v2, iL), or a slope of it, in lanes 0-2; lane 3
 * stays 0. No function takes or returns one: -Wpsabi would flag it. */
typedef double State __attribute__((vector_size(32)));

typedef struct {
    double *t;
    int64_t *k;
    double *v;
    int64_t n;    /* events seen, stored or not */
    int64_t cap;  /* events stored: the first cap */
} Events;

static inline void push_event(Events *ev, double t, int64_t kind, double v)
{
    if (ev->n < ev->cap) {
        ev->t[ev->n] = t;
        ev->k[ev->n] = kind;
        ev->v[ev->n] = v;
    }
    ev->n++;
}

/* push_event for a window crossing by v1 at time t: below v_min, or else
 * above v_max. */
static inline void push_crossing(Events *ev, double t, double v1,
                                 double v_min)
{
    push_event(ev, t, v1 < v_min ? KIND_SOA_LOW : KIND_SOA_HIGH, v1);
}

/* The divergence test of both kernels: no state magnitude beyond its
 * ceiling, and no NaN. */
static inline int bounded(double v_div, double i_div, double v1, double v2,
                          double il)
{
    return -v_div <= v1 && v1 <= v_div && -v_div <= v2 && v2 <= v_div
           && -i_div <= il && il <= i_div;
}

/* Write row j of a record; returns j + 1. */
static inline int64_t record(double *times, double *states, int64_t j,
                             double t, double v1, double v2, double il)
{
    times[j] = t;
    states[3 * j] = v1;
    states[3 * j + 1] = v2;
    states[3 * j + 2] = il;
    return j + 1;
}

/* The circuit's field at (x, y, z) into (fa, fb, fc), for double and v2d
 * operands alike, with the circuit p1 to l read from `q`: a call struct or
 * a Circuit2. The coupling current u = (y - x) * g feeds both capacitor
 * rows. No kernel local may share a temporary's name, field_*:
 * -Wshadow would flag it. */
#define FIELD(q, x, y, z, fa, fb, fc)                                        \
    do {                                                                     \
        const __typeof__(x) field_x = (x), field_y = (y), field_z = (z);     \
        const __typeof__(x) field_ir =                                       \
            field_x * ((q)->p1 + field_x * ((q)->p2 + field_x * ((q)->p3     \
            + field_x * ((q)->p4 + field_x * (q)->p5))))                     \
            - (q)->gn * field_x;                                             \
        const __typeof__(x) field_u = (field_y - field_x) * (q)->g;          \
        (fa) = (field_u - field_ir) / (q)->c1;                               \
        (fb) = (field_z - field_u) / (q)->c2;                                \
        (fc) = -field_y / (q)->l;                                            \
    } while (0)

/* FIELD at the State `s` into the first three lanes of the State `k` */
#define STATE_FIELD(q, s, k)                                                 \
    FIELD(q, (s)[0], (s)[1], (s)[2], (k)[0], (k)[1], (k)[2])

/* The closure `step` of _rk4_trajectory: one RK4 step in place, in both
 * lanes at once. Each lane sees the scalar operations in the scalar order. */
static inline void step(const Circuit2 *q, v2d dt, v2d h,
                        v2d *pa, v2d *pb, v2d *pc)
{
    const v2d two = {2.0, 2.0}, six = {6.0, 6.0};
    const v2d a = *pa, b = *pb, c = *pc;
    v2d k1a, k1b, k1c, k2a, k2b, k2c, k3a, k3b, k3c, k4a, k4b, k4c;

    FIELD(q, a, b, c, k1a, k1b, k1c);
    FIELD(q, a + h * k1a, b + h * k1b, c + h * k1c, k2a, k2b, k2c);
    FIELD(q, a + h * k2a, b + h * k2b, c + h * k2c, k3a, k3b, k3c);
    FIELD(q, a + dt * k3a, b + dt * k3b, c + dt * k3c, k4a, k4b, k4c);
    *pa = a + dt * (k1a + two * (k2a + k3a) + k4a) / six;
    *pb = b + dt * (k1b + two * (k2b + k3b) + k4b) / six;
    *pc = c + dt * (k1c + two * (k2c + k3c) + k4c) / six;
}

/* The per-lane call, state and outputs of memchua_rk4_trajectory. */
typedef struct {
    const Rk4Call *c;
    double *times, *states;
    Events ev;
    int64_t until_record, until_renorm;  /* steps to the next of each */
    int recording, shadow, inside;
    int64_t j, status, ni, lyap_status;
    double acc;
} Lane;

/* The rest of _rk4_trajectory's loop body after the steps, for one lane
 * at step k: the divergence and window checks, the record and the
 * renormalization, in the Python kernel's order. Where that kernel leaves
 * its loop, this clears both `recording` and `shadow`, which stops the
 * lane. Countdowns stand in for its `(k - rec_start) % stride` and
 * `k % renorm_every` tests; they match because each flag is on from step 1
 * until it goes off for good. `w` holds the lane's shadow state; returns 1
 * when it was renormalized. */
static inline int advance(Lane *ln, int64_t k, double v1, double v2,
                          double il, double *w)
{
    const Rk4Call *c = ln->c;

    if (!bounded(c->v_div, c->i_div, v1, v2, il)) {
        if (ln->recording) {
            push_event(&ln->ev, (double)k * c->dt, KIND_DIVERGED, v1);
            ln->status = STATUS_DIVERGED;
        }
        if (ln->shadow)
            ln->lyap_status = STATUS_DIVERGED;
        ln->recording = ln->shadow = 0;
        return 0;
    }

    if (ln->recording) {
        const double t = (double)k * c->dt;
        const int now_inside = c->v_min <= v1 && v1 <= c->v_max;
        if (ln->inside && !now_inside) {
            push_crossing(&ln->ev, t, v1, c->v_min);
            if (c->abort_on_soa) {
                ln->status = STATUS_SOA_ABORT;
                ln->recording = 0;
                if (!ln->shadow)
                    return 0;
            }
        }
        ln->inside = now_inside;

        if (ln->recording && --ln->until_record == 0) {
            ln->until_record = c->stride;
            ln->j = record(ln->times, ln->states, ln->j, t, v1, v2, il);
        }
    }

    if (ln->shadow && --ln->until_renorm == 0) {
        const double dx = w[0] - v1;
        const double dy = w[1] - v2;
        const double dz = w[2] - il;
        const double d = sqrt(dx * dx + dy * dy + dz * dz);
        ln->until_renorm = c->renorm_every;
        if (!isfinite(d) || d <= 0.0) {
            ln->lyap_status = STATUS_SHADOW_FAIL;
            ln->shadow = 0;
        } else {
            double s;
            if (k - c->renorm_every >= c->transient_steps) {
                ln->acc += log(d / c->d0);
                ln->ni++;
            }
            s = c->d0 / d;
            w[0] = v1 + dx * s;
            w[1] = v2 + dy * s;
            w[2] = il + dz * s;
            return 1;
        }
    }
    return 0;
}

/* _rk4_trajectory for `lanes` (1 or 2) runs at once, each lane one run:
 * lane l runs calls[l]. times[l] holds the rows the Python kernel would
 * allocate (kernels._record_rows), states[l] three times that, and the
 * event buffers ev_cap entries each. On return out[5 l ..] holds lane l's
 * (rows recorded, status, events seen, n_intervals, lyap_status) and
 * acc[l] its summed log stretch.
 *
 * Both lanes step together as 2-wide vectors, the references as one
 * vector and the shadows as another, each lane with its own dt; a single
 * lane fills the unused half with a copy of itself. The bookkeeping stays
 * scalar, per lane. A lane that stopped, or ran its own n_steps, keeps
 * stepping, its values unused, until both have stopped. */
void memchua_rk4_trajectory(
    int lanes, const Rk4Call *calls, double *const *times,
    double *const *states, double *const *ev_t, int64_t *const *ev_k,
    double *const *ev_v, int64_t ev_cap, int64_t *out, double *acc)
{
/* the field f of each lane's call in a v2d; lane 1 reads lane 0's call
 * when there is one lane */
#define PAIR(f) ((v2d){calls[0].f, calls[lanes > 1].f})
    const Circuit2 q = {PAIR(p1), PAIR(p2), PAIR(p3), PAIR(p4), PAIR(p5),
                        PAIR(g), PAIR(gn), PAIR(c1), PAIR(c2), PAIR(l)};
    const v2d vdt = PAIR(dt), half = {0.5, 0.5};
    const v2d vh = half * vdt;
    v2d v1 = PAIR(v1), v2 = PAIR(v2), il = PAIR(il);
    v2d w1 = v1 + PAIR(d0), w2 = v2, wl = il;
#undef PAIR
    Lane ln[2];
    int64_t k;
    int l;

    /* with one lane, lane 1 stops before step 1 */
    ln[1] = (Lane){.c = calls};
    for (l = 0; l < lanes; l++) {
        const Rk4Call *c = &calls[l];
        Lane *n = &ln[l];

        /* the rest is 0: no rows or events yet, STATUS_OK, a zero sum */
        *n = (Lane){
            .c = c, .times = times[l], .states = states[l],
            .ev = {ev_t[l], ev_k[l], ev_v[l], 0, ev_cap},
            .until_record = c->rec_start > 0 ? c->rec_start : c->stride,
            .until_renorm = c->renorm_every,
            .recording = c->rec_start <= c->n_steps,
            .shadow = c->shadow != 0,
            .inside = c->v_min <= c->v1 && c->v1 <= c->v_max};
        if (n->recording && !n->inside) {
            push_crossing(&n->ev, 0.0, c->v1, c->v_min);
            if (c->abort_on_soa) {
                n->status = STATUS_SOA_ABORT;
                n->recording = 0;
            }
        }
        if (n->recording && c->rec_start == 0)
            n->j = record(n->times, n->states, n->j, 0.0, c->v1, c->v2,
                          c->il);
    }

    for (k = 1;; k++) {
        for (l = 0; l < 2; l++)
            if (k > ln[l].c->n_steps)
                ln[l].recording = ln[l].shadow = 0;
        if (!(ln[0].recording || ln[0].shadow || ln[1].recording
              || ln[1].shadow))
            break;
        step(&q, vdt, vh, &v1, &v2, &il);
        if (ln[0].shadow || ln[1].shadow)
            step(&q, vdt, vh, &w1, &w2, &wl);
        for (l = 0; l < 2; l++) {
            double w[3] = {w1[l], w2[l], wl[l]};
            if ((ln[l].recording || ln[l].shadow)
                && advance(&ln[l], k, v1[l], v2[l], il[l], w)) {
                w1[l] = w[0];
                w2[l] = w[1];
                wl[l] = w[2];
            }
        }
    }

    for (l = 0; l < lanes; l++) {
        out[5 * l] = ln[l].j;
        out[5 * l + 1] = ln[l].status;
        out[5 * l + 2] = ln[l].ev.n;
        out[5 * l + 3] = ln[l].ni;
        out[5 * l + 4] = ln[l].lyap_status;
        acc[l] = ln[l].acc;
    }
}

/* Double the record buffers, to at most max_rows rows (more than *cap); 0
 * on success, -1 (buffers untouched) when memory runs out. */
static int grow(double **times, double **states, int64_t *cap,
                int64_t max_rows)
{
    const int64_t ncap = *cap < max_rows / 2 ? *cap * 2 : max_rows;
    double *nt, *ns;

    nt = realloc(*times, (size_t)ncap * sizeof(double));
    if (nt == NULL)
        return -1;
    *times = nt;
    ns = realloc(*states, (size_t)ncap * 3 * sizeof(double));
    if (ns == NULL)
        return -1;
    *states = ns;
    *cap = ncap;
    return 0;
}

/* _dopri_trajectory of `call` over States; `call` is copied to q, whose
 * fields no record write can alias. The record buffers start at 1024 rows
 * and double as needed, to at most max_rows; on return *times_out and
 * *states_out hold them (free both with memchua_free), out holds (rows
 * recorded, status, events seen). Returns 0, or -1 with nothing to free
 * when memory ran out. */
int memchua_dopri_trajectory(
    const DopriCall *call, double *ev_t, int64_t *ev_k, double *ev_v,
    int64_t ev_cap, double **times_out, double **states_out, int64_t *out)
{
    const DopriCall q = *call;
    int64_t cap = 1024;
    double *times = malloc((size_t)cap * sizeof(double));
    double *states = malloc((size_t)cap * 3 * sizeof(double));
    Events ev = {ev_t, ev_k, ev_v, 0, ev_cap};
    int64_t j = 0;
    int64_t status = STATUS_OK;
    int inside = q.v_min <= q.v1 && q.v1 <= q.v_max;
    int64_t rec_count = -1;
    double t = 0.0;
    double h = q.h0;
    int64_t iters = 0;
    double r, fac;
    State y = {q.v1, q.v2, q.il, 0.0}, x, yn, e;
    State k1 = {0.0}, k2 = {0.0}, k3 = {0.0}, k4 = {0.0}, k5 = {0.0};
    State k6 = {0.0}, k7 = {0.0};
    int i;

    if (times == NULL || states == NULL)
        goto out_of_memory;

    if (!inside) {
        push_crossing(&ev, 0.0, q.v1, q.v_min);
        if (q.abort_on_soa)
            status = STATUS_SOA_ABORT;
    }
    /* a start past the divergence bounds has diverged, as an accepted step
     * past them has */
    if (status == STATUS_OK && !bounded(q.v_div, q.i_div, q.v1, q.v2, q.il)) {
        push_event(&ev, 0.0, KIND_DIVERGED, q.v1);
        status = STATUS_DIVERGED;
    }

    if (status == STATUS_OK && q.t_transient <= 0.0) {
        if (q.max_rows < 1) {
            status = STATUS_ROW_LIMIT;
        } else {
            j = record(times, states, j, 0.0, q.v1, q.v2, q.il);
            rec_count = 0;
        }
    }

    /* first same as last: an accepted step's k7 is the next step's k1, and
     * a rejected step leaves the state, and so k1, unchanged */
    STATE_FIELD(&q, y, k1);
    while (status == STATUS_OK && t < q.t_end) {
        iters++;
        if (iters > q.max_steps) {
            status = STATUS_STEP_LIMIT;
            break;
        }
        if (h < q.h_min) {
            status = STATUS_STEP_UNDERFLOW;
            break;
        }
        if (t + h > q.t_end)
            h = q.t_end - t;

        x = y + h * 0.2 * k1;
        STATE_FIELD(&q, x, k2);
        x = y + h * (0.075 * k1 + 0.225 * k2);
        STATE_FIELD(&q, x, k3);
        x = y + h * ((44.0 / 45.0) * k1 - (56.0 / 15.0) * k2
                     + (32.0 / 9.0) * k3);
        STATE_FIELD(&q, x, k4);
        x = y + h * ((19372.0 / 6561.0) * k1 - (25360.0 / 2187.0) * k2
                     + (64448.0 / 6561.0) * k3 - (212.0 / 729.0) * k4);
        STATE_FIELD(&q, x, k5);
        x = y + h * ((9017.0 / 3168.0) * k1 - (355.0 / 33.0) * k2
                     + (46732.0 / 5247.0) * k3 + (49.0 / 176.0) * k4
                     - (5103.0 / 18656.0) * k5);
        STATE_FIELD(&q, x, k6);
        yn = y + h * ((35.0 / 384.0) * k1 + (500.0 / 1113.0) * k3
                      + (125.0 / 192.0) * k4 - (2187.0 / 6784.0) * k5
                      + (11.0 / 84.0) * k6);
        STATE_FIELD(&q, yn, k7);
        e = h * ((71.0 / 57600.0) * k1 - (71.0 / 16695.0) * k3
                 + (71.0 / 1920.0) * k4 - (17253.0 / 339200.0) * k5
                 + (22.0 / 525.0) * k6 - 0.025 * k7);

        /* the largest component ratio, a NaN ratio kept only when first */
        r = fabs(e[0]) / (q.abs_tol + q.rel_tol * fabs(y[0]));
        for (i = 1; i < 3; i++) {
            const double ri =
                fabs(e[i]) / (q.abs_tol + q.rel_tol * fabs(y[i]));
            if (ri > r)
                r = ri;
        }
        if (!isfinite(r))
            r = 2.0;

        if (r <= 1.0) {
            int now_inside;

            t = t + h;
            y = yn;
            k1 = k7;

            if (!bounded(q.v_div, q.i_div, y[0], y[1], y[2])) {
                push_event(&ev, t, KIND_DIVERGED, y[0]);
                status = STATUS_DIVERGED;
                break;
            }

            now_inside = q.v_min <= y[0] && y[0] <= q.v_max;
            if (inside && !now_inside) {
                push_crossing(&ev, t, y[0], q.v_min);
                if (q.abort_on_soa) {
                    status = STATUS_SOA_ABORT;
                    break;
                }
            }
            inside = now_inside;

            if (t >= q.t_transient) {
                rec_count++;
                if (rec_count % q.stride == 0) {
                    if (j >= q.max_rows) {
                        status = STATUS_ROW_LIMIT;
                        break;
                    }
                    if (j >= cap
                        && grow(&times, &states, &cap, q.max_rows) != 0)
                        goto out_of_memory;
                    j = record(times, states, j, t, y[0], y[1], y[2]);
                }
            }
        }

        /* _dopri_trajectory's next h for both outcomes: pow(0, -0.2) is
         * inf, so an error-free step grows h by 5, and r > 1 stays below 5 */
        fac = 0.9 * pow(r, -0.2);
        if (fac > 5.0)
            fac = 5.0;
        else if (fac < 0.2)
            fac = 0.2;
        h = h * fac;
        if (r <= 1.0 && h > q.h_max)
            h = q.h_max;
    }

    *times_out = times;
    *states_out = states;
    out[0] = j;
    out[1] = status;
    out[2] = ev.n;
    return 0;

out_of_memory:
    free(times);
    free(states);
    return -1;
}

void memchua_free(void *p)
{
    free(p);
}
