"""Fixtures shared by the service tests."""

import socket

import pytest


@pytest.fixture()
def dials(monkeypatch):
    """Every ``socket.create_connection`` made while the test runs."""
    made = []
    real = socket.create_connection

    def counting(address, *args, **kwargs):
        made.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return made
