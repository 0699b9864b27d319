"""Plane and sphere arithmetic on plain lists, shared by the generator and
the reference checker."""

from __future__ import annotations

import math


def rot2(pivot, angle, p):
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = p[0] - pivot[0], p[1] - pivot[1]
    return [pivot[0] + c * dx - s * dy, pivot[1] + s * dx + c * dy]


def unit(v):
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return [v[0] / n, v[1] / n, v[2] / n]


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def rodrigues(axis, angle, p):
    c, s = math.cos(angle), math.sin(angle)
    k = dot(axis, p) * (1.0 - c)
    w = cross(axis, p)
    return [p[i] * c + w[i] * s + axis[i] * k for i in range(3)]


def norm(v):
    return math.sqrt(sum(c * c for c in v))
